package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"barter/internal/catalog"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// nTypes bounds the wire type tags counted per message type.
const nTypes = 32

// maxFrames caps the reservoir of encoded frames a traced phase keeps for
// the codec replay.
const maxFrames = 2048

// rpcSpan is one mediator request seen from one side of a connection: on a
// dialing side the envelope send to the matching reply (a round trip), on an
// accepting side the envelope receive to the reply send (service time).
type rpcSpan struct {
	kind       protocol.Type
	start, end time.Time
}

// recorder owns every wire of a run. The counts are kept in every run; the
// spans, frame sample and wire-byte totals only while traced is set, and
// stay in memory until the run writes them out.
type recorder struct {
	traced atomic.Bool

	mu     sync.Mutex
	wires  []*wire
	rtt    []rpcSpan
	svc    []rpcSpan
	frames [][]byte
	seen   uint64
	pick   *rand.Rand

	inflight, inflightPeak atomic.Int64
}

func newRecorder(seed uint64) *recorder {
	return &recorder{pick: rand.New(rand.NewPCG(seed, 0x7261636b))}
}

// newWire wraps inner in a counting transport registered with the recorder.
func (r *recorder) newWire(inner transport.Transport) *wire {
	w := &wire{inner: inner, rec: r, first: make(map[catalog.ObjectID]time.Time)}
	r.mu.Lock()
	r.wires = append(r.wires, w)
	r.mu.Unlock()
	return w
}

// sample keeps a uniform reservoir of encoded frames for the codec replay.
func (r *recorder) sample(frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	switch {
	case len(r.frames) < maxFrames:
		r.frames = append(r.frames, append([]byte(nil), frame...))
	default:
		if i := r.pick.Uint64N(r.seen); i < maxFrames {
			r.frames[i] = append(r.frames[i][:0], frame...)
		}
	}
}

func (r *recorder) addSpan(client bool, s rpcSpan) {
	r.mu.Lock()
	if client {
		r.rtt = append(r.rtt, s)
	} else {
		r.svc = append(r.svc, s)
	}
	r.mu.Unlock()
}

// wireCounts is a sum of wire counters; phases report differences.
type wireCounts struct {
	msgs       [nTypes]uint64
	served     uint64 // enveloped requests received on an accepting side
	noKey      uint64 // MedReject NoKey replies sent
	blockBytes uint64
	wireBytes  uint64
	sendBusy   time.Duration
}

func (c wireCounts) sub(o wireCounts) wireCounts {
	for i := range c.msgs {
		c.msgs[i] -= o.msgs[i]
	}
	c.served -= o.served
	c.noKey -= o.noKey
	c.blockBytes -= o.blockBytes
	c.wireBytes -= o.wireBytes
	c.sendBusy -= o.sendBusy
	return c
}

func (c wireCounts) total() uint64 {
	var n uint64
	for _, v := range c.msgs {
		n += v
	}
	return n
}

// counts sums the counters of every wire the run has created.
func (r *recorder) counts() wireCounts {
	r.mu.Lock()
	wires := append([]*wire(nil), r.wires...)
	r.mu.Unlock()
	var c wireCounts
	for _, w := range wires {
		for i := range c.msgs {
			c.msgs[i] += w.msgs[i].Load()
		}
		c.served += w.served.Load()
		c.noKey += w.noKey.Load()
		c.blockBytes += w.blockBytes.Load()
		c.wireBytes += w.wireBytes.Load()
		c.sendBusy += time.Duration(w.sendBusy.Load())
	}
	return c
}

// wire is the benchmark's transport.Transport wrapper: one per node (its
// peer connections and its mediator client) and one per mediator shard. It
// observes the layers below from outside, without touching them.
type wire struct {
	inner transport.Transport
	rec   *recorder

	msgs       [nTypes]atomic.Uint64
	served     atomic.Uint64
	noKey      atomic.Uint64
	blockBytes atomic.Uint64
	wireBytes  atomic.Uint64
	sendBusy   atomic.Int64

	mu    sync.Mutex
	first map[catalog.ObjectID]time.Time // first block received, traced only
}

var _ transport.Transport = (*wire)(nil)

// Listen implements transport.Transport; accepted connections serve
// requests, so their envelopes are timed as service.
func (w *wire) Listen(addr string) (transport.Listener, error) {
	ln, err := w.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: ln, w: w}, nil
}

// Dial implements transport.Transport; dialed connections issue requests,
// so their envelopes are timed as round trips.
func (w *wire) Dial(addr string) (transport.Conn, error) {
	c, err := w.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, w: w, dialed: true, pending: make(map[uint64]rpcSpan)}, nil
}

// firstBlock returns when the first block of obj arrived (traced phases).
func (w *wire) firstBlock(obj catalog.ObjectID) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.first[obj]
	return t, ok
}

func (w *wire) count(msg protocol.Message) {
	if env, ok := msg.(*protocol.Envelope); ok {
		msg = env.Msg
	}
	w.msgs[msg.Type()%nTypes].Add(1)
	switch m := msg.(type) {
	case *protocol.Block:
		w.blockBytes.Add(uint64(len(m.Payload)))
	case *protocol.MedReject:
		if m.Code == protocol.MedRejectNoKey {
			w.noKey.Add(1)
		}
	}
}

type listener struct {
	transport.Listener
	w *wire
}

func (l *listener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, w: l.w, pending: make(map[uint64]rpcSpan)}, nil
}

type conn struct {
	transport.Conn
	w      *wire
	dialed bool

	mu      sync.Mutex
	pending map[uint64]rpcSpan // open envelope spans by ReqID, traced only
	scratch []byte
}

func (c *conn) Send(msg protocol.Message) error {
	c.w.count(msg)
	if !c.w.rec.traced.Load() {
		return c.Conn.Send(msg)
	}
	now := time.Now()
	c.mu.Lock()
	if env, ok := msg.(*protocol.Envelope); ok {
		if c.dialed {
			c.pending[env.ReqID] = rpcSpan{kind: env.Msg.Type(), start: now}
			storeMax(&c.w.rec.inflightPeak, c.w.rec.inflight.Add(1))
		} else if s, ok := c.pending[env.ReqID]; ok {
			delete(c.pending, env.ReqID)
			s.end = now
			c.w.rec.addSpan(false, s)
		}
	}
	frame, err := protocol.AppendEncode(c.scratch[:0], msg)
	if err == nil {
		c.scratch = frame
		c.w.wireBytes.Add(uint64(len(frame)))
		c.w.rec.sample(frame)
	}
	c.mu.Unlock()
	start := time.Now()
	err = c.Conn.Send(msg)
	c.w.sendBusy.Add(int64(time.Since(start)))
	return err
}

func (c *conn) Recv() (protocol.Message, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return msg, err
	}
	if _, isEnv := msg.(*protocol.Envelope); isEnv && !c.dialed {
		c.w.served.Add(1)
	}
	if !c.w.rec.traced.Load() {
		return msg, nil
	}
	now := time.Now()
	switch m := msg.(type) {
	case *protocol.Block:
		c.w.mu.Lock()
		if _, ok := c.w.first[m.Object]; !ok {
			c.w.first[m.Object] = now
		}
		c.w.mu.Unlock()
	case *protocol.Envelope:
		c.mu.Lock()
		if c.dialed {
			if s, ok := c.pending[m.ReqID]; ok {
				delete(c.pending, m.ReqID)
				c.w.rec.inflight.Add(-1)
				s.end = now
				c.w.rec.addSpan(true, s)
			}
		} else {
			c.pending[m.ReqID] = rpcSpan{kind: m.Msg.Type(), start: now}
		}
		c.mu.Unlock()
	}
	return msg, nil
}

// storeMax raises v to x if x is larger.
func storeMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// tierTransport gives each mediator shard's listener a wire of its own; the
// connections shards dial to one another share one more.
type tierTransport struct {
	inner transport.Transport
	rec   *recorder
	dial  *wire
}

func newTierTransport(inner transport.Transport, rec *recorder) *tierTransport {
	return &tierTransport{inner: inner, rec: rec, dial: rec.newWire(inner)}
}

func (t *tierTransport) Listen(addr string) (transport.Listener, error) {
	return t.rec.newWire(t.inner).Listen(addr)
}

func (t *tierTransport) Dial(addr string) (transport.Conn, error) {
	return t.dial.Dial(addr)
}
