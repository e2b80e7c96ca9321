package repro

import (
	"fmt"
	"io"

	"repro/internal/sched"
)

// Table5 prints the packet transmission scheme for 4 layers over 8 rounds
// (the paper's Table 5) and the round-4 per-slot layer assignment of
// Figure 7. The unit tests in internal/sched verify this output matches
// the paper cell by cell, and that the One Level Property holds for every
// layer count.
func Table5(w io.Writer, o Options) error {
	s, err := sched.New(4)
	if err != nil {
		return err
	}
	fprintf(w, "Table 5: Packet transmission scheme for 4 layers (block-relative slots)\n")
	fprintf(w, "%-6s %-10s", "Layer", "BW/round")
	for rd := 1; rd <= 8; rd++ {
		fprintf(w, " Rd%-6d", rd)
	}
	fprintf(w, "\n")
	var slots []int
	for layer := 3; layer >= 0; layer-- {
		fprintf(w, "%-6d %-10d", layer, s.SlotsPerRound(layer))
		for rd := 0; rd < 8; rd++ {
			slots = s.AppendSlots(slots[:0], layer, rd)
			cell := ""
			if len(slots) == 1 {
				cell = fmt.Sprintf("%d", slots[0])
			} else {
				cell = fmt.Sprintf("%d-%d", slots[0], slots[len(slots)-1])
			}
			fprintf(w, " %-8s", cell)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\nFigure 7: round 4 send pattern (slot -> layer): ")
	owner := map[int]int{}
	for layer := 0; layer < 4; layer++ {
		for _, slot := range s.AppendSlots(slots[:0], layer, 3) {
			owner[slot] = layer
		}
	}
	for slot := 0; slot < s.BlockSize(); slot++ {
		fprintf(w, "%d:%d ", slot, owner[slot])
	}
	fprintf(w, "\n")
	return nil
}
