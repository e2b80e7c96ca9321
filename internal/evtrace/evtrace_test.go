package evtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != EventSize {
		t.Fatalf("Event is %d bytes in memory, want %d", got, EventSize)
	}
}

func TestDisabledEmitRecordsNothing(t *testing.T) {
	r := New(Config{Shards: 1, ShardSize: 16})
	sh := r.Shard(0)
	if sh.On() {
		t.Fatal("new recorder should start disabled")
	}
	sh.Emit(EvIntake, 1, 2, 3, 0, 4, 5)
	if evs := r.Snapshot(); len(evs) != 0 {
		t.Fatalf("disabled Emit recorded %d events", len(evs))
	}
}

func TestNilShardIsSafe(t *testing.T) {
	var sh *Shard
	if sh.On() {
		t.Fatal("nil shard reports On")
	}
	sh.Emit(EvIntake, 1, 2, 3, 0, 4, 5) // must not panic
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Shard(0) != nil {
		t.Fatal("nil recorder returned a shard")
	}
}

func TestEmitToggleAndSnapshot(t *testing.T) {
	var now int64
	r := New(Config{Shards: 1, ShardSize: 16, Clock: func() int64 { now += 10; return now }})
	sh := r.Shard(0)
	r.Enable()
	sh.Emit(EvRound, 7, 1, 0, 2, 3, 4)
	r.Disable()
	sh.Emit(EvRound, 7, 1, 0, 2, 5, 6) // dropped: disabled
	r.Enable()
	sh.Emit(EvDone, 7, 0, 9, 0, 100, 200)
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Type != EvRound || evs[0].TS != 10 || evs[0].Sess != 7 || evs[0].Layer != 2 || evs[0].A != 3 {
		t.Fatalf("unexpected first event %+v", evs[0])
	}
	if evs[1].Type != EvDone || evs[1].Actor != 9 || evs[1].B != 200 {
		t.Fatalf("unexpected second event %+v", evs[1])
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingOverwriteAndDropped(t *testing.T) {
	r := New(Config{Shards: 1, ShardSize: 8})
	r.Enable()
	sh := r.Shard(0)
	for i := 0; i < 20; i++ {
		sh.Emit(EvIntake, 0, 0, 0, 0, uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(evs))
	}
	// The oldest retained event is #12 (20 emitted - 8 capacity).
	for i, ev := range evs {
		if want := uint64(12 + i); ev.A != want {
			t.Fatalf("event %d has A=%d, want %d", i, ev.A, want)
		}
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
}

func TestShardSizeRoundsToPowerOfTwo(t *testing.T) {
	r := New(Config{Shards: 1, ShardSize: 9})
	r.Enable()
	sh := r.Shard(0)
	for i := 0; i < 16; i++ {
		sh.Emit(EvIntake, 0, 0, 0, 0, uint64(i), 0)
	}
	if got := len(r.Snapshot()); got != 16 {
		t.Fatalf("ring retained %d, want 16 (9 rounded up)", got)
	}
}

func TestSnapshotMergeOrder(t *testing.T) {
	var now int64
	r := New(Config{Shards: 2, ShardSize: 16, Clock: func() int64 { return now }})
	r.Enable()
	// Same timestamp on both shards: order must be shard 0 first, then
	// within a shard, emission order.
	now = 5
	r.Shard(1).Emit(EvIntake, 0, 0, 0, 0, 10, 0)
	r.Shard(0).Emit(EvIntake, 0, 0, 0, 0, 20, 0)
	r.Shard(0).Emit(EvIntake, 0, 0, 0, 0, 21, 0)
	now = 1
	r.Shard(1).Emit(EvIntake, 0, 0, 0, 0, 30, 0)
	evs := r.Snapshot()
	want := []uint64{30, 20, 21, 10}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.A != want[i] {
			t.Fatalf("position %d: A=%d, want %d", i, ev.A, want[i])
		}
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	r := New(Config{Shards: 1, ShardSize: 1 << 10})
	r.Enable()
	sh := r.Shard(0)
	if n := testing.AllocsPerRun(1000, func() {
		sh.Emit(EvIntake, 1, 2, 3, 0, 4, 5)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %.2f/op, want 0", n)
	}
	r.Disable()
	if n := testing.AllocsPerRun(1000, func() {
		sh.Emit(EvIntake, 1, 2, 3, 0, 4, 5)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %.2f/op, want 0", n)
	}
}

// TestCountedCountsAndRecords: every Add counts; only an Add through a
// bound, enabled shard records, stamped with the bound identity; Undo takes
// a count back and records nothing.
func TestCountedCountsAndRecords(t *testing.T) {
	r := New(Config{Shards: 1, ShardSize: 16})
	var c Counted
	c.Add(1, 0, 0, 0) // unbound
	c.Trace(r.Shard(0), EvIntake, 7, 2, 9)
	c.Add(1, 0, 0, 0) // bound, recorder off
	r.Enable()
	c.Add(3, 4, 10, 11)
	c.Trace(r.Shard(0), EvIntake, 8, 2, 9)
	c.Add(1, 0, 12, 13)
	c.Undo()
	c.Trace(nil, EvIntake, 8, 2, 9)
	c.Add(1, 0, 14, 15) // unbound again
	if got := c.Load(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	want := []Event{
		{A: 10, B: 11, Sess: 7, Src: 2, Actor: 9, Type: EvIntake, Layer: 4},
		{A: 12, B: 13, Sess: 8, Src: 2, Actor: 9, Type: EvIntake},
	}
	evs := r.Snapshot()
	if len(evs) != len(want) {
		t.Fatalf("recorded %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i].TS = 0; evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

// TestCountedAddZeroAlloc: Add allocates nothing with the recorder nil,
// off and on — it runs once per packet on the send and intake paths.
func TestCountedAddZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	r := New(Config{Shards: 1, ShardSize: 1 << 10})
	for _, tc := range []struct {
		name string
		sh   *Shard
		on   bool
	}{{"nil", nilRec.Shard(0), false}, {"off", r.Shard(0), false}, {"on", r.Shard(0), true}} {
		if tc.on {
			r.Enable()
		}
		var c Counted
		c.Trace(tc.sh, EvChDeliver, 1, 2, 3)
		if n := testing.AllocsPerRun(1000, func() {
			c.Trace(tc.sh, EvChDeliver, 1, 2, 3)
			c.Add(1, 0, 4, 5)
		}); n != 0 {
			t.Fatalf("recorder %s: Add allocates %.2f/op, want 0", tc.name, n)
		}
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := New(Config{Shards: 4, ShardSize: 1 << 12})
	r.Enable()
	var wg sync.WaitGroup
	const perG = 2000
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := r.Shard(g)
			for i := 0; i < perG; i++ {
				sh.Emit(EvIntake, uint16(g), 0, 0, 0, uint64(i), 0)
			}
		}(g)
	}
	wg.Wait()
	r.Disable()
	if got := len(r.Snapshot()); got != 4*perG {
		t.Fatalf("retained %d events, want %d", got, 4*perG)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := []Event{
		{TS: -5, A: 1, B: 2, Sess: 3, Src: 4, Actor: 5, Type: EvSlotFired, Layer: 6},
		{TS: 1 << 40, A: ^uint64(0), B: 0, Sess: 0xFFFF, Src: 0, Actor: 0xABCD, Type: EvDone, Layer: 255},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	if want := 16 + len(in)*EventSize; buf.Len() != want {
		t.Fatalf("dump is %d bytes, want %d", buf.Len(), want)
	}
	out, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACE0000000")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Event{{Type: EvIntake}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated dump accepted")
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	evs := []Event{
		{TS: 1000, Type: EvSlotScheduled, Sess: 1, Src: 0, A: 5000},
		{TS: 6000, Type: EvSlotFired, Sess: 1, Src: 0, A: 5000, B: 6000},
		{TS: 7000, Type: EvIntake, Sess: 1, Src: 0, Actor: 2, A: 9, B: 3},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(parsed.TraceEvents))
	}
	// The fired slot renders as a complete event spanning the jitter.
	fired := parsed.TraceEvents[1]
	if fired["ph"] != "X" {
		t.Fatalf("slot_fired phase = %v, want X", fired["ph"])
	}
	if fired["dur"].(float64) != 1.0 { // (6000-5000) ns = 1 µs
		t.Fatalf("slot_fired dur = %v µs, want 1", fired["dur"])
	}
	// Client-side events land on the receiver thread band.
	if parsed.TraceEvents[2]["tid"].(float64) != 1002 {
		t.Fatalf("intake tid = %v, want 1002", parsed.TraceEvents[2]["tid"])
	}
}

func TestTypeString(t *testing.T) {
	if EvIntake.String() != "intake" || EvDone.String() != "done" {
		t.Fatal("type names wrong")
	}
	if got := Type(200).String(); got != "type(200)" {
		t.Fatalf("unknown type renders %q", got)
	}
}
