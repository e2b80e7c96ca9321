// Package interleave implements the interleaved block-coding baseline of
// §6: K source packets are partitioned into B = K/k blocks of k packets,
// each block is stretched to k+l packets with a standard Reed-Solomon
// (Cauchy) erasure code, and the carousel transmits one packet from each
// block in turn ("the encoding consists of sequences of B packets, each of
// which consist of exactly one packet from each block").
//
// The receiver must fill every block — k distinct packets per block — so
// reception efficiency decays with the number of blocks (the coupon
// collector effect of Figure 3), which is the phenomenon Figures 4-6 and
// Table 4 quantify against Tornado codes.
//
// The blocks are independent, so the decoder solves each one as soon as
// it holds k packets, into its range of the file's one buffer, on solver
// goroutines beside the receive loop (at most GOMAXPROCS, none once the
// queue of filled blocks is empty); Source only waits for them.
package interleave

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/code"
	"repro/internal/rs"
)

// Codec is the interleaved block code. It satisfies code.Codec with
// K() = total source packets and N() = total encoding packets.
//
// Packet indexing is carousel order: index i corresponds to block i % B,
// within-block packet i / B. This matches the interleaved transmission
// order, so a carousel that cycles 0..N-1 sends one packet of each block
// per round.
type Codec struct {
	blockK    int // k: source packets per block
	blockN    int // k + l: encoding packets per block
	blocks    int // B
	packetLen int
	inner     *rs.Cauchy
}

// New constructs an interleaved codec over `blocks` blocks of `blockK`
// source packets, each stretched to `blockN` encoding packets.
func New(blockK, blockN, blocks, packetLen int) (*Codec, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("interleave: invalid block count %d", blocks)
	}
	inner, err := rs.NewCauchy(blockK, blockN, packetLen)
	if err != nil {
		return nil, err
	}
	return &Codec{blockK: blockK, blockN: blockN, blocks: blocks, packetLen: packetLen, inner: inner}, nil
}

// NewForFile sizes an interleaved codec for K total source packets split
// into blocks of at most blockK packets, with stretch factor
// stretch = blockN/blockK. K is rounded up to a multiple of the block size.
func NewForFile(totalK, blockK, stretch, packetLen int) (*Codec, error) {
	if blockK <= 0 || totalK <= 0 {
		return nil, fmt.Errorf("interleave: invalid sizes totalK=%d blockK=%d", totalK, blockK)
	}
	if blockK > totalK {
		blockK = totalK
	}
	blocks := (totalK + blockK - 1) / blockK
	return New(blockK, blockK*stretch, blocks, packetLen)
}

// Name implements code.Codec.
func (c *Codec) Name() string { return fmt.Sprintf("interleaved-k%d", c.blockK) }

// K implements code.Codec.
func (c *Codec) K() int { return c.blockK * c.blocks }

// N implements code.Codec.
func (c *Codec) N() int { return c.blockN * c.blocks }

// PacketLen implements code.Codec.
func (c *Codec) PacketLen() int { return c.packetLen }

// Blocks returns the number of interleaved blocks B.
func (c *Codec) Blocks() int { return c.blocks }

// BlockK returns the per-block source packet count k.
func (c *Codec) BlockK() int { return c.blockK }

// position maps an encoding packet index to (block, within-block index).
func (c *Codec) position(i int) (block, inner int) {
	return i % c.blocks, i / c.blocks
}

// Columns implements code.RowEncoder: no static rows, the columns are src.
func (c *Codec) Columns(src [][]byte) [][]byte { return src }

// SourceOf implements code.RowEncoder. src is in file order (block-major:
// packets 0..k-1 form block 0) while encoding indices are in carousel
// order, so the code is systematic via this mapping rather than a prefix:
// it is the inverse of SourceIndex.
func (c *Codec) SourceOf(idx int) int {
	b, inner := c.position(idx)
	if inner < c.blockK {
		return b*c.blockK + inner
	}
	return -1
}

// EncodeInto implements code.RowEncoder: packet idx lives in block idx % B,
// whose sources are contiguous in file order, and is that block's Cauchy
// repair row.
func (c *Codec) EncodeInto(dst []byte, src [][]byte, idx int) {
	b, inner := c.position(idx)
	c.inner.EncodeInto(dst, src[b*c.blockK:(b+1)*c.blockK], inner)
}

// SourceIndex returns the encoding index of file source packet f (file
// order: block-major, i.e. packets 0..k-1 are block 0).
func (c *Codec) SourceIndex(f int) int {
	block, inner := f/c.blockK, f%c.blockK
	return inner*c.blocks + block
}

// NewDecoder implements code.Codec.
func (c *Codec) NewDecoder() code.Decoder {
	d := &decoder{
		c:      c,
		blocks: make([]code.Decoder, c.blocks),
		out:    code.SourceBuf{K: c.K(), PacketLen: c.packetLen},
		seen:   make([]uint64, (c.N()+63)/64),
	}
	for b := range d.blocks {
		d.blocks[b] = c.inner.NewDecoderInto(&d.out, b*c.blockK)
	}
	d.pending = c.blocks
	return d
}

type decoder struct {
	c        *Codec
	blocks   []code.Decoder // block b resolves into file packets [b·k, (b+1)·k) of out
	out      code.SourceBuf
	seen     []uint64 // bit i: encoding packet i accepted
	pending  int      // blocks not yet decodable
	received int

	solves  sync.WaitGroup // one count per filled block until it is solved
	mu      sync.Mutex     // guards queue, solvers and err
	queue   []int          // filled blocks no solver has taken yet
	solvers int            // solver goroutines running, at most GOMAXPROCS
	err     error          // the first solve error, read after solves.Wait
}

func (d *decoder) Add(i int, data []byte) (bool, error) {
	if err := code.CheckPacket(i, data, d.c.N(), d.c.packetLen); err != nil {
		return d.Done(), err
	}
	if d.Done() || d.seen[i/64]&(1<<(i%64)) != 0 {
		return d.Done(), nil
	}
	b, inner := d.c.position(i)
	bd := d.blocks[b]
	wasDone := bd.Done()
	done, err := bd.Add(inner, data)
	if err != nil {
		return d.Done(), err
	}
	d.seen[i/64] |= 1 << (i % 64)
	d.received++
	if done && !wasDone {
		d.pending--
		d.fill(b)
	}
	return d.Done(), nil
}

// fill queues block b, which now holds k packets, for solving off the
// receiving goroutine, and starts a solver if fewer than GOMAXPROCS run.
// Later packets of a filled block only read its count, and a solve writes
// only its block's range of out, which must exist before the first solve
// starts: Slot allocates it lazily.
func (d *decoder) fill(b int) {
	d.out.Slot(0)
	d.solves.Add(1)
	d.mu.Lock()
	d.queue = append(d.queue, b)
	start := d.solvers < runtime.GOMAXPROCS(0)
	if start {
		d.solvers++
	}
	d.mu.Unlock()
	if start {
		go d.solve()
	}
}

// solve is one solver goroutine: it solves queued blocks in fill order and
// exits when the queue is empty, so a decoder holds at most GOMAXPROCS
// goroutines however many blocks it has, and none once every filled block
// is solved.
func (d *decoder) solve() {
	d.mu.Lock()
	for len(d.queue) > 0 {
		b := d.queue[0]
		d.queue = d.queue[1:]
		d.mu.Unlock()
		_, err := d.blocks[b].Source()
		d.mu.Lock()
		if err != nil && d.err == nil {
			d.err = err
		}
		d.solves.Done()
	}
	d.solvers--
	d.mu.Unlock()
}

func (d *decoder) Done() bool { return d.pending == 0 }

// Received counts the distinct packets accepted before Done, those that
// reached an already filled block included.
func (d *decoder) Received() int { return d.received }

// Source returns the file's source packets in file order (block-major),
// once the solvers have solved every block, each started as it filled.
func (d *decoder) Source() ([]byte, error) {
	if !d.Done() {
		return nil, code.ErrNotReady
	}
	d.solves.Wait()
	if d.err != nil {
		return nil, d.err
	}
	return d.out.Bytes(), nil
}
