package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/code"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/transport"
)

// The per-layer numbers are measured from outside the program: the tracer
// times the calls the benchmark makes into each layer's public functions
// (it is the transport.Sender handed to service.New, and the receive loops
// call it around RecvBatch, HandlePacket/HandleBatchFrom and File), and the
// layers nested too deep to wrap are timed by replay — the traced download
// records which indices were emitted and which were accepted, and finish
// times the inner call alone on exactly that input.

// span is one timed call. Spans are kept for one traced download only (they
// are per packet on the bus workloads) and written by -trace-out.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index of the span that caused it; -1 for a download
	sender     bool          // recorded on a scheduler shard, not the receive goroutine
}

// layerSample is the per-layer measurement of one traced download. Times are
// inclusive spans unless named self.
type layerSample struct {
	wall                    time.Duration
	setupSess, setupCli     time.Duration
	emit, send, intake      time.Duration // emit and send are self times
	recvWait, file          time.Duration
	encode, frame           time.Duration // replay
	decodeAdd, decodeSource time.Duration // replay
	sendBatches, sendPkts   int
	recvBatches, recvPkts   int
	released                int
	paceRatio               float64
	catchup, debtDropped    uint64
	cacheHits, cacheMisses  uint64
	rxLoss                  float64
	sentPerAccepted         float64
	duplicates, corrupt     int
	budget                  time.Duration // sum of the receive goroutine's self times
}

type tracer struct {
	inner transport.Sender
	// sync is true on the Bus: sends and deliveries nest on the one
	// goroutine, so a send's parent is the open EmitRound span and its self
	// time excludes the intake it contains.
	sync  bool
	epoch time.Time

	// Receive-goroutine state.
	begin, end                time.Duration // the download window, on the tracer's clock
	lap                       time.Duration // where the current EmitRound span began
	emit, intake, recv, fileT time.Duration
	recvBatches, recvPkts     int
	cur, root                 int32
	keep                      bool // record spans for this download
	downloads                 int32
	flows                     []*flow
	nestedInSend              time.Duration // intake time inside the sends

	// mu guards what scheduler shards touch from SendBatch: on the udp
	// workloads two shards send concurrently with the receive loop.
	mu          sync.Mutex
	send        time.Duration
	sendBatches int
	sendPkts    int
	spans       []span
}

func newTracer(inner transport.Sender, sync bool) *tracer {
	return &tracer{inner: inner, sync: sync, epoch: time.Now(), cur: -1, root: -1}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// open and shut record a span when spans are being kept.
func (t *tracer) open(name string, parent int32, at time.Duration, sender bool) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: at, end: at, parent: parent, sender: sender})
	return int32(len(t.spans) - 1)
}

func (t *tracer) shut(i int32, at time.Duration) {
	t.mu.Lock()
	t.spans[i].end = at
	t.mu.Unlock()
}

// start begins a traced download whose window opened at `at`. The first
// download of a phase keeps its spans.
func (t *tracer) start(flows []*flow, at time.Time) {
	t.mu.Lock()
	t.send, t.sendBatches, t.sendPkts = 0, 0, 0
	t.mu.Unlock()
	t.emit, t.intake, t.recv, t.fileT = 0, 0, 0, 0
	t.recvBatches, t.recvPkts = 0, 0
	t.nestedInSend = 0
	t.flows = flows
	t.keep = t.downloads == 0
	t.downloads++
	t.begin = at.Sub(t.epoch)
	t.lap = t.begin
	if t.keep {
		t.root = t.open("download", -1, t.lap, false)
		t.cur = t.root
		if t.sync {
			t.cur = t.open("service.EmitRound", t.root, t.lap, false)
		}
	}
}

// lapEmit closes one EmitRound span and opens the next. Chaining them on one
// clock read leaves no untimed gap in the emit loop, so the bus budget sums
// to the download's wall time.
func (t *tracer) lapEmit() {
	now := t.now()
	t.emit += now - t.lap
	t.lap = now
	if t.keep {
		t.shut(t.cur, now)
		t.cur = t.open("service.EmitRound", t.root, now, false)
	}
}

// Send and SendBatch make the tracer the transport.Sender the service emits
// into.
func (t *tracer) Send(layer int, pkt []byte) error {
	return t.SendBatch(layer, [][]byte{pkt})
}

func (t *tracer) SendBatch(layer int, pkts [][]byte) error {
	var sp int32
	t0 := t.now()
	if t.keep {
		parent := t.root
		if t.sync {
			parent = t.cur
		}
		sp = t.open("transport.SendBatch", parent, t0, !t.sync)
		if t.sync {
			t.cur = sp
		}
	}
	err := t.inner.SendBatch(layer, pkts)
	t1 := t.now()
	if t.keep {
		t.shut(sp, t1)
		if t.sync {
			t.cur = t.spans[sp].parent
		}
	}
	t.mu.Lock()
	t.send += t1 - t0
	t.sendBatches++
	t.sendPkts += len(pkts)
	for _, p := range pkts {
		if h, _, err := proto.ParseHeader(p); err == nil {
			if f := flowOf(t.flows, h.Session); f != nil {
				f.emitted = append(f.emitted, h.Index)
			}
		}
	}
	t.mu.Unlock()
	return err
}

// beginIntake and endIntake time one Engine.HandlePacket on the Bus.
func (t *tracer) beginIntake(f *flow, pkt []byte) time.Duration {
	if h, _, err := proto.ParseHeader(pkt); err == nil {
		f.accepted = append(f.accepted, h.Index)
	}
	t0 := t.now()
	if t.keep {
		t.cur = t.open("client.HandlePacket", t.cur, t0, false)
	}
	return t0
}

func (t *tracer) endIntake(t0 time.Duration) {
	now := t.now()
	t.intake += now - t0
	t.nestedInSend += now - t0
	if t.keep {
		t.shut(t.cur, now)
		t.cur = t.spans[t.cur].parent
	}
}

// endRecv accounts one UDPClient.RecvBatch: the time the receiver was
// blocked waiting for work.
func (t *tracer) endRecv(t0 time.Duration, n int) {
	now := t.now()
	t.recv += now - t0
	if n > 0 {
		t.recvBatches++
		t.recvPkts += n
	}
	if t.keep {
		t.shut(t.open("transport.RecvBatch", t.root, t0, false), now)
	}
}

// beginBatch and endBatch time one Engine.HandleBatchFrom.
func (t *tracer) beginBatch(f *flow, pkts [][]byte) time.Duration {
	for _, p := range pkts {
		if h, _, err := proto.ParseHeader(p); err == nil {
			f.accepted = append(f.accepted, h.Index)
		}
	}
	t0 := t.now()
	if t.keep {
		t.cur = t.open("client.HandleBatchFrom", t.root, t0, false)
	}
	return t0
}

func (t *tracer) endBatch(f *flow, t0 time.Duration) {
	now := t.now()
	t.intake += now - t0
	// HandleBatchFrom stops at the packet that completes the file; what
	// follows it in the batch never reached the engine.
	if total, _, _ := f.eng.Stats(); total < len(f.accepted) {
		f.accepted = f.accepted[:total]
	}
	if t.keep {
		t.shut(t.cur, now)
		t.cur = t.root
	}
}

// beginFile and endFile time Engine.File.
func (t *tracer) beginFile() time.Duration {
	t0 := t.now()
	if t.keep {
		if t.sync {
			// Drop the EmitRound span lapEmit opened after the last round.
			t.spans = t.spans[:len(t.spans)-1]
		}
		t.cur = t.open("core.File", t.root, t0, false)
	}
	return t0
}

func (t *tracer) endFile(t0 time.Duration) {
	now := t.now()
	t.fileT += now - t0
	t.end = now
	if t.keep {
		t.shut(t.cur, now)
		t.shut(t.root, now)
		t.cur = t.root
	}
}

// finish turns the download's spans and counters into a layerSample and
// replays the recorded index sequences through the inner layers.
func (t *tracer) finish(flows []*flow, s sample, st0, st1 service.Stats, rate int) (*layerSample, error) {
	t.keep = false
	t.mu.Lock()
	send, sendBatches, sendPkts := t.send, t.sendBatches, t.sendPkts
	t.mu.Unlock()
	l := &layerSample{
		wall:        t.end - t.begin,
		setupSess:   s.setupSess,
		setupCli:    s.setupCli,
		intake:      t.intake,
		recvWait:    t.recv,
		file:        t.fileT,
		sendBatches: sendBatches,
		sendPkts:    sendPkts,
		recvBatches: t.recvBatches,
		recvPkts:    t.recvPkts,
		catchup:     st1.CatchupRounds - st0.CatchupRounds,
		debtDropped: st1.DebtDropped - st0.DebtDropped,
		cacheHits:   st1.CacheHits - st0.CacheHits,
		cacheMisses: st1.CacheMisses - st0.CacheMisses,
	}
	if t.sync {
		// One goroutine: deliveries nest in sends, sends nest in rounds.
		l.send = send - t.nestedInSend
		l.emit = t.emit - send
		l.budget = l.emit + l.send + l.intake + l.file
	} else {
		l.send = send
		l.budget = l.recvWait + l.intake + l.file
		if rate > 0 && s.wall > 0 {
			l.paceRatio = float64(s.emitted) / s.wall.Seconds() / float64(rate*len(flows))
		}
	}
	if s.accepted > 0 {
		l.sentPerAccepted = float64(s.emitted) / float64(s.accepted)
	}
	var received, lost int
	for _, f := range flows {
		ss := f.eng.SourceStats(0)
		received += ss.Received
		lost += ss.Lost
		l.duplicates += ss.Duplicate
		l.corrupt += ss.Corrupt
	}
	if received+lost > 0 {
		l.rxLoss = float64(lost) / float64(received+lost)
	}
	// The replay starts from a collected heap without the finished engines
	// in it, as the download did: the decoders allocate enough that what the
	// collector has to mark shows in their time.
	for _, f := range flows {
		f.eng, f.got = nil, nil
	}
	runtime.GC()
	for _, f := range flows {
		if err := replay(f, l); err != nil {
			return nil, fmt.Errorf("replay of session %#x: %w", f.sess.Config().Session, err)
		}
	}
	return l, nil
}

// replay times the layers the benchmark cannot wrap, on exactly the input
// the traced download gave them: the rateless per-emission encode and the
// packet framing over the emitted indices, and the decoder over the accepted
// ones.
func replay(f *flow, l *layerSample) error {
	sess := f.sess
	if sess.Rateless() {
		ranger := sess.Codec().(code.RangeEncoder)
		src, err := code.Split(f.file, sess.Codec().K(), sess.Config().PacketLen)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, idx := range f.emitted {
			if _, err := ranger.EncodeRange(src, int(idx), int(idx)+1); err != nil {
				return err
			}
		}
		l.encode += time.Since(t0)
	}
	buf := make([]byte, 0, sess.WireLen())
	t0 := time.Now()
	for i, idx := range f.emitted {
		sess.AppendPacket(buf, int(idx), 0, uint32(i+1), 0)
	}
	l.frame += time.Since(t0)

	// The live path hands the decoder each payload in a pooled buffer the
	// sender has just written, so the replay does too: the payload is
	// rebuilt off the clock and every Add is timed on its own.
	dec := sess.Codec().NewDecoder()
	hot := make([]byte, sess.Config().PacketLen)
	var add time.Duration
	done := false
	for _, idx := range f.accepted {
		copy(hot, sess.Payload(int(idx)))
		t0 := time.Now()
		d, err := dec.Add(int(idx), hot)
		add += time.Since(t0)
		if err != nil {
			return err
		}
		if d {
			done = true
			break
		}
	}
	if !done {
		return errors.New("the accepted sequence did not decode")
	}
	t1 := time.Now()
	if _, err := dec.Source(); err != nil {
		return err
	}
	l.decodeAdd += add
	l.decodeSource += time.Since(t1)
	if rc, ok := dec.(code.ReleaseCounter); ok {
		l.released += rc.Released()
	}
	return nil
}

// writeSpans writes the kept spans as Chrome trace-event JSON (open it in
// chrome://tracing or ui.perfetto.dev). pid is the workload's position in
// the run, tid 0 the receive goroutine and 1 the scheduler shards.
func writeSpans(path string, runs [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := []event{}
	for pid, spans := range runs {
		for i, s := range spans {
			tid := 0
			if s.sender {
				tid = 1
			}
			events = append(events, event{
				Name: s.name, Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3,
				Pid: pid, Tid: tid,
				Args: map[string]int{"span": i, "parent": int(s.parent), "download": pid},
			})
		}
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
