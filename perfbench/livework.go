package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/node"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// The live workloads share their shape: a few seed peers hold the whole
// catalog in small blocks, and each pass a fresh set of sharing downloaders
// fetches every object once, in its own seeded order, from up to
// liveProviders current holders. A download that takes longer than
// liveTimeout counts as failed.
const (
	liveSeeds     = 4
	liveBlockSize = 4 << 10
	liveProviders = 6
	liveTimeout   = 20 * time.Second
)

// The mediated workload stripes each download across medStripe origins,
// runs a tier of medShards shards with write-ahead logs, and makes its last
// seed serve junk.
const (
	medStripe = 3
	medShards = 2
)

// liveSpec is what differs between the live workloads.
type liveSpec struct {
	name        string
	mediated    bool
	downloaders int
	objects     int
	objectSize  int
}

func plainSpec(small bool) liveSpec {
	s := liveSpec{name: "swarm-plain-tcp", downloaders: 8, objects: 64, objectSize: 64 << 10}
	if small {
		s.downloaders, s.objects = 4, 8
	}
	return s
}

func mediatedSpec(small bool) liveSpec {
	s := liveSpec{name: "swarm-mediated-tcp", mediated: true, downloaders: 8, objects: 64, objectSize: 16 << 10}
	if small {
		s.downloaders, s.objects = 4, 8
	}
	return s
}

// peer is one live node with its own wire and, when mediated, its own
// mediator client.
type peer struct {
	id      core.PeerID
	nd      *node.Node
	w       *wire
	medc    *medclient.Client
	corrupt bool
	got     []int // object indexes completed this pass
}

func (p *peer) close() {
	p.nd.Close()
	if p.medc != nil {
		p.medc.Close()
	}
}

// dlSpan is one traced download: Download called, first block in, done.
type dlSpan struct {
	peer              core.PeerID
	obj               catalog.ObjectID
	start, first, end time.Time
	hasFirst          bool
}

type live struct {
	spec   liveSpec
	seed   uint64
	rec    *recorder
	tcp    transport.TCP
	data   [][]byte
	oracle map[catalog.ObjectID][][32]byte
	walDir string
	tier   *mediator.Cluster
	seeds  []*peer
	down   []*peer // the current pass's downloaders
	passes int
	nextID core.PeerID
	ever   []core.PeerID // every downloader id of the run

	dirMu sync.RWMutex
	dir   map[core.PeerID]string

	holdMu  sync.Mutex
	holders [][]core.PeerID // by object index

	// Phase accounting, reset by begin.
	traced    bool
	stats     node.Stats
	seedBase  []node.Stats
	countBase wireCounts
	walBase   int64
	completed int
	dls       []dlSpan

	bad []string // output check failures found so far
}

// newLive is the workload's set-up: it starts the mediator tier (opening
// its logs) when mediated, starts the seeds and seeds the catalog.
func newLive(spec liveSpec, seed uint64, workdir string) (_ *live, err error) {
	l := &live{
		spec:   spec,
		seed:   seed,
		rec:    newRecorder(seed),
		tcp:    transport.TCP{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second},
		oracle: make(map[catalog.ObjectID][][32]byte, spec.objects),
		dir:    make(map[core.PeerID]string),
		nextID: 1,
	}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	for i := range spec.objects {
		r := rand.New(rand.NewPCG(seed, uint64(i)))
		b := make([]byte, spec.objectSize)
		for off := 0; off < len(b); off += 8 {
			binary.LittleEndian.PutUint64(b[off:], r.Uint64())
		}
		l.data = append(l.data, b)
		var digs [][32]byte
		for off := 0; off < len(b); off += liveBlockSize {
			digs = append(digs, sha256.Sum256(b[off:min(off+liveBlockSize, len(b))]))
		}
		l.oracle[catalog.ObjectID(i+1)] = digs
	}
	if spec.mediated {
		l.walDir, err = os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("%s: wal dir: %w", spec.name, err)
		}
		addrs := make([]string, medShards)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		l.tier, err = mediator.NewClusterOpts(newTierTransport(l.tcp, l.rec), addrs, l.trusted,
			mediator.ClusterOpts{DataDir: l.walDir})
		if err != nil {
			return nil, fmt.Errorf("%s: mediator tier: %w", spec.name, err)
		}
	}
	for i := range liveSeeds {
		p, err := l.spawn(spec.mediated && i == liveSeeds-1)
		if err != nil {
			return nil, err
		}
		l.seeds = append(l.seeds, p)
		for j, b := range l.data {
			p.nd.AddObject(catalog.ObjectID(j+1), b)
		}
	}
	return l, nil
}

// tailQ: a run times thousands of downloads.
func (l *live) tailQ() float64 { return 0.99 }

func (l *live) trusted(obj catalog.ObjectID) ([][32]byte, bool) {
	d, ok := l.oracle[obj]
	return d, ok
}

func (l *live) lookup(id core.PeerID) (string, bool) {
	l.dirMu.RLock()
	defer l.dirMu.RUnlock()
	a, ok := l.dir[id]
	return a, ok
}

func (l *live) spawn(corrupt bool) (*peer, error) {
	p := &peer{id: l.nextID, w: l.rec.newWire(l.tcp), corrupt: corrupt}
	l.nextID++
	cfg := node.Config{
		ID:           p.id,
		Addr:         "127.0.0.1:0",
		Transport:    p.w,
		Lookup:       l.lookup,
		Share:        true,
		Corrupt:      corrupt,
		BlockSize:    liveBlockSize,
		TickInterval: 5 * time.Millisecond,
		StallTicks:   10,
		MaxRetries:   1 << 20, // the benchmark's timeout decides failure
	}
	if l.spec.mediated {
		cfg.TrustedDigests = l.trusted
		mc, err := medclient.New(medclient.Config{Transport: p.w, Seeds: l.tier.Addrs(), Backoff: 10 * time.Millisecond})
		if err != nil {
			return nil, fmt.Errorf("%s: medclient %d: %w", l.spec.name, p.id, err)
		}
		p.medc = mc
		cfg.Mediator = mc
		cfg.Stripe = medStripe
	}
	nd, err := node.New(cfg)
	if err != nil {
		if p.medc != nil {
			p.medc.Close()
		}
		return nil, fmt.Errorf("%s: node %d: %w", l.spec.name, p.id, err)
	}
	p.nd = nd
	l.dirMu.Lock()
	l.dir[p.id] = nd.Addr()
	l.dirMu.Unlock()
	return p, nil
}

func (l *live) begin(traced bool) {
	l.traced = traced
	l.rec.traced.Store(traced)
	l.rec.mu.Lock()
	l.rec.rtt, l.rec.svc, l.rec.frames, l.rec.seen = nil, nil, nil, 0
	l.rec.mu.Unlock()
	l.rec.inflightPeak.Store(0)
	l.stats = node.Stats{}
	l.seedBase = l.seedBase[:0]
	for _, p := range l.seeds {
		l.seedBase = append(l.seedBase, p.nd.Stats())
	}
	l.countBase = l.rec.counts()
	l.walBase = l.walBytes()
	l.completed = 0
	l.dls = nil
}

// prepare starts the pass's fresh downloaders; only the seeds hold objects.
func (l *live) prepare() error {
	l.passes++
	for range l.spec.downloaders {
		p, err := l.spawn(false)
		if err != nil {
			return err
		}
		l.down = append(l.down, p)
		l.ever = append(l.ever, p.id)
	}
	l.holders = make([][]core.PeerID, l.spec.objects)
	for i := range l.holders {
		for _, s := range l.seeds {
			l.holders[i] = append(l.holders[i], s.id)
		}
	}
	return nil
}

// providers picks up to liveProviders current holders of object i.
func (l *live) providers(r *rand.Rand, i int) map[core.PeerID]string {
	l.holdMu.Lock()
	cand := append([]core.PeerID(nil), l.holders[i]...)
	l.holdMu.Unlock()
	r.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	out := make(map[core.PeerID]string, liveProviders)
	for _, id := range cand[:min(len(cand), liveProviders)] {
		if addr, ok := l.lookup(id); ok {
			out[id] = addr
		}
	}
	return out
}

func (l *live) pass() ([]op, error) {
	ops := make([][]op, len(l.down))
	spans := make([][]dlSpan, len(l.down))
	var wg sync.WaitGroup
	for i, p := range l.down {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(l.seed, uint64(l.passes)<<32|uint64(i)))
			for _, oi := range r.Perm(l.spec.objects) {
				obj := catalog.ObjectID(oi + 1)
				provs := l.providers(r, oi)
				start := time.Now()
				err := node.WaitFor(p.nd.Download(obj, provs), liveTimeout)
				end := time.Now()
				ops[i] = append(ops[i], op{dur: end.Sub(start), ok: err == nil})
				if err != nil {
					continue
				}
				p.got = append(p.got, oi)
				l.holdMu.Lock()
				l.holders[oi] = append(l.holders[oi], p.id)
				l.holdMu.Unlock()
				if l.traced {
					first, ok := p.w.firstBlock(obj)
					spans[i] = append(spans[i], dlSpan{p.id, obj, start, first, end, ok})
				}
			}
		}()
	}
	wg.Wait()
	var all []op
	for i, o := range ops {
		all = append(all, o...)
		l.dls = append(l.dls, spans[i]...)
	}
	return all, nil
}

// settle checks every object the pass delivered against its source, folds
// the downloaders' counters into the phase, and closes them.
func (l *live) settle() {
	for _, p := range l.down {
		addStats(&l.stats, p.nd.Stats())
		for _, oi := range p.got {
			if !bytes.Equal(p.nd.Object(catalog.ObjectID(oi+1)), l.data[oi]) {
				l.bad = append(l.bad, fmt.Sprintf("peer %d holds a corrupt copy of object %d", p.id, oi+1))
			}
		}
		l.completed += len(p.got)
	}
	l.closeDownloaders()
}

func (l *live) closeDownloaders() {
	var wg sync.WaitGroup
	for _, p := range l.down {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.close()
		}()
		l.dirMu.Lock()
		delete(l.dir, p.id)
		l.dirMu.Unlock()
	}
	wg.Wait()
	l.down = nil
}

func addStats(dst *node.Stats, s node.Stats) {
	dst.RingsJoined += s.RingsJoined
	dst.Preemptions += s.Preemptions
	dst.StripesReassigned += s.StripesReassigned
	dst.MedRejects += s.MedRejects
}

// walBytes is the total size of the tier's write-ahead logs.
func (l *live) walBytes() int64 {
	if l.walDir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(l.walDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a log vanishing mid-walk only shortens the sum
	})
	return n
}

// check reports the run's output check failures: a delivered copy that
// differs from its source and, when mediated, a log write failure, a
// corrupt seed the tier did not flag or an honest peer it did.
func (l *live) check() error {
	bad := l.bad
	if l.tier != nil {
		for i := range l.tier.Shards() {
			if sh := l.tier.Shard(i); sh != nil && sh.WALErr() != nil {
				bad = append(bad, fmt.Sprintf("shard %d log: %v", i, sh.WALErr()))
			}
		}
		var honest []core.PeerID
		for _, s := range l.seeds {
			flagged := l.tier.Flagged(s.id) > 0
			if s.corrupt && !flagged {
				bad = append(bad, fmt.Sprintf("corrupt seed %d was not flagged", s.id))
			}
			if !s.corrupt && flagged {
				honest = append(honest, s.id)
			}
		}
		for _, id := range l.ever {
			if l.tier.Flagged(id) > 0 {
				honest = append(honest, id)
			}
		}
		if len(honest) > 0 {
			bad = append(bad, fmt.Sprintf("%d honest peers flagged by the tier: %v", len(honest), honest))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %s", l.spec.name, strings.Join(bad, "; "))
	}
	return nil
}

func (l *live) close() {
	l.closeDownloaders()
	for _, p := range l.seeds {
		p.close()
	}
	l.seeds = nil
	if l.tier != nil {
		l.tier.Close()
		l.tier = nil
	}
	if l.walDir != "" {
		_ = os.RemoveAll(l.walDir) // scratch; a leftover only costs disk
		l.walDir = ""
	}
}

func rpcKind(t protocol.Type) string {
	switch t {
	case protocol.TypeMedDeposit:
		return "deposit"
	case protocol.TypeMedVerify:
		return "verify"
	case protocol.TypeMedShardMapReq:
		return "shardmap"
	case protocol.TypeMedHandoff:
		return "handoff"
	}
	return fmt.Sprintf("type%d", t)
}

func spanSeconds(spans []rpcSpan, kind protocol.Type) []float64 {
	var out []float64
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

func (l *live) layers(ph *phase) (map[string]float64, []span, error) {
	for i, p := range l.seeds {
		st := p.nd.Stats()
		b := l.seedBase[i]
		st.RingsJoined -= b.RingsJoined
		st.Preemptions -= b.Preemptions
		st.StripesReassigned -= b.StripesReassigned
		st.MedRejects -= b.MedRejects
		addStats(&l.stats, st)
	}
	c := l.rec.counts().sub(l.countBase)
	l.rec.mu.Lock()
	rtt, svc, frames := l.rec.rtt, l.rec.svc, l.rec.frames
	l.rec.mu.Unlock()

	var waits, transfers []float64
	var spans []span
	for _, d := range l.dls {
		name := fmt.Sprintf("%d/%d", d.peer, d.obj)
		spans = append(spans, span{"node.download", name, d.start, d.end})
		if d.hasFirst {
			waits = append(waits, d.first.Sub(d.start).Seconds())
			transfers = append(transfers, d.end.Sub(d.first).Seconds())
			spans = append(spans, span{"node.wait", name, d.start, d.first})
		}
	}
	rpcs := 0
	for _, s := range rtt {
		spans = append(spans, span{"medclient." + rpcKind(s.kind), "", s.start, s.end})
		if s.kind != protocol.TypeMedHandoff {
			rpcs++
		}
	}
	for _, s := range svc {
		spans = append(spans, span{"mediator." + rpcKind(s.kind), "", s.start, s.end})
	}

	passes := float64(len(ph.sweeps))
	downloads := float64(l.completed)
	delivered := downloads * float64(l.spec.objectSize)
	blocks := float64(c.msgs[protocol.TypeBlock])
	deposits := spanSeconds(rtt, protocol.TypeMedDeposit)
	verifies := spanSeconds(rtt, protocol.TypeMedVerify)
	depSvc := spanSeconds(svc, protocol.TypeMedDeposit)
	verSvc := spanSeconds(svc, protocol.TypeMedVerify)
	m := map[string]float64{
		"node.wait_p50_s":                median(waits),
		"node.transfer_p50_s":            median(transfers),
		"node.rings_joined":              float64(l.stats.RingsJoined) / passes,
		"node.preemptions":               float64(l.stats.Preemptions) / passes,
		"node.stripes_reassigned":        float64(l.stats.StripesReassigned) / passes,
		"node.audit_rejects":             float64(l.stats.MedRejects) / passes,
		"transport.block_bytes_per_byte": ratio(float64(c.blockBytes), delivered),
		"transport.wire_bytes_per_byte":  ratio(float64(c.wireBytes), delivered),
		"transport.msgs_per_download":    ratio(float64(c.total()), downloads),
		"transport.ctrl_msgs_per_block":  ratio(float64(c.total())-blocks, blocks),
		"transport.send_busy_s":          c.sendBusy.Seconds() / passes,
		"medclient.deposit.rtt_p50_s":    quantile(deposits, 0.50),
		"medclient.deposit.rtt_p99_s":    quantile(deposits, 0.99),
		"medclient.verify.rtt_p50_s":     quantile(verifies, 0.50),
		"medclient.verify.rtt_p99_s":     quantile(verifies, 0.99),
		"medclient.inflight_peak":        float64(l.rec.inflightPeak.Load()),
		"medclient.rpcs_per_download":    ratio(float64(rpcs), downloads),
		"mediator.deposit.service_p50_s": quantile(depSvc, 0.50),
		"mediator.deposit.service_p99_s": quantile(depSvc, 0.99),
		"mediator.verify.service_p50_s":  quantile(verSvc, 0.50),
		"mediator.verify.service_p99_s":  quantile(verSvc, 0.99),
		"mediator.nokey_per_verify":      ratio(float64(c.noKey), float64(c.msgs[protocol.TypeMedVerify])),
		"mediator.wal_bytes_per_rpc":     ratio(float64(l.walBytes()-l.walBase), float64(c.served)),
	}
	rep, err := replay(frames)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rep {
		m[k] = v
	}
	return m, spans, nil
}
