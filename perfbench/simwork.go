package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"barter/internal/core"
	"barter/internal/experiment"
	"barter/internal/runner"
	"barter/internal/sim"
)

// fig4Replicas is how many worlds every grid point runs in, as
// `exchsim -experiment fig4 -quick -replicas 4` does: the run's seed and
// seeds the runner derives from it. One simulated world moves a grid's cost
// by about 15%; every sweep running the same four keeps the sweeps of a run
// alike and a run's figures from resting on one world.
const fig4Replicas = 4

// fig4Uploads and fig4Policies are the quick-scale Figure 4 grid, in the
// submission order experiment.Fig4 uses.
var (
	fig4Uploads  = []float64{80, 60, 40, 20}
	fig4Policies = []core.Policy{core.PolicyPairwise, core.PolicyN2, core.Policy2N, core.PolicyNoExchange}
)

// simFig4 times the quick Figure 4 grid through the experiment runner.
// Ring search, the event queue, the holder index and the runner do nearly
// all of its work; the live stack does none.
type simFig4 struct {
	parallel int
	seed     uint64
	units    []sim.Config   // every replica of every grid point, in runner order
	index    map[string]int // grid-point label -> job index
	tsv      string         // the first sweep's TSV
	diverged int            // sweeps whose TSV differed from the first

	traced bool
	tails  []float64 // traced sweeps: wall time with at least one worker idle
	busy   []float64 // traced sweeps: worker-busy share of workers x wall
}

// newSimFig4 builds the grid: every replica's configuration of every grid
// point and, to time world construction as set-up, its simulator.
func newSimFig4(seed uint64, parallel int) (*simFig4, error) {
	if seed == 0 {
		seed = 1 // experiment.Options maps seed 0 to 1; the grid must agree
	}
	s := &simFig4{parallel: parallel, seed: seed, index: make(map[string]int)}
	for _, ul := range fig4Uploads {
		for _, pol := range fig4Policies {
			job := len(s.index)
			s.index[fmt.Sprintf("fig4 ul=%g %s", ul, pol)] = job
			for r := range fig4Replicas {
				cfg := experiment.QuickBase()
				cfg.Seed = runner.JobSeed(seed, job, r)
				cfg.UploadKbps = ul
				cfg.Policy = pol
				s.units = append(s.units, cfg)
			}
		}
	}
	for _, cfg := range s.units {
		if _, err := sim.New(cfg); err != nil {
			return nil, fmt.Errorf("sim-fig4: build %v: %w", cfg.Policy, err)
		}
	}
	return s, nil
}

func (s *simFig4) begin(traced bool) { s.traced = traced }
func (s *simFig4) prepare() error    { return nil }
func (s *simFig4) settle()           {}
func (s *simFig4) close()            {}

// tailQ: a 30 s run times about five sweeps of 64 runs.
func (s *simFig4) tailQ() float64 { return 0.95 }

// options are the experiment options of one sweep.
func (s *simFig4) options(parallel int, progress func(string)) experiment.Options {
	return experiment.Options{Seed: s.seed, Quick: true, Parallel: parallel, Replicas: fig4Replicas, Progress: progress}
}

// pass runs the grid once. An op is one run, a replica of a grid point: its
// latency runs from the grid's start to the run's completion, as someone
// watching the figure fill in sees it.
func (s *simFig4) pass() ([]op, error) {
	type done struct {
		unit int // index in runner order
		at   time.Time
	}
	var (
		mu    sync.Mutex
		ends  []done
		stray []string
	)
	start := time.Now()
	rep, err := experiment.Fig4().Run(s.options(s.parallel, func(msg string) {
		at := time.Now()
		rest, ok := strings.CutPrefix(msg, "done ")
		if !ok {
			return // a per-point summary line
		}
		label, replica, _ := strings.Cut(rest, " replica ")
		var r, of int
		_, serr := fmt.Sscanf(replica, "%d/%d", &r, &of)
		mu.Lock()
		defer mu.Unlock()
		if job, ok := s.index[label]; ok && serr == nil && of == fig4Replicas && r >= 1 && r <= of {
			ends = append(ends, done{job*fig4Replicas + r - 1, at})
		} else {
			stray = append(stray, msg)
		}
	}))
	if err != nil {
		return nil, fmt.Errorf("sim-fig4: %w", err)
	}
	end := time.Now()
	if len(stray) > 0 || len(ends) != len(s.units) {
		return nil, fmt.Errorf("sim-fig4: %d runs completed, want %d (unparsed progress: %q)", len(ends), len(s.units), stray)
	}
	if tsv := rep.TSV(); s.tsv == "" {
		s.tsv = tsv
	} else if tsv != s.tsv {
		s.diverged++
	}
	ops := make([]op, len(ends))
	for i, d := range ends {
		ops[i] = op{dur: d.at.Sub(start), ok: true}
	}
	if s.traced {
		// The runner hands runs out in submission order: the first
		// `parallel` start with the grid and run parallel+k starts when
		// the k-th completion frees its worker.
		var busy time.Duration
		for _, d := range ends {
			from := start
			if j := d.unit - s.parallel; j >= 0 {
				from = ends[j].at
			}
			busy += d.at.Sub(from)
		}
		s.busy = append(s.busy, busy.Seconds()/(end.Sub(start).Seconds()*float64(s.parallel)))
		// The tail opens when the queue is empty and a worker finds nothing
		// left: at completion number len-parallel+1.
		s.tails = append(s.tails, end.Sub(ends[max(0, len(ends)-s.parallel)].at).Seconds())
	}
	return ops, nil
}

// check compares every sweep's TSV with the reference for the seed: the
// same grid run sequentially at Parallel 1.
func (s *simFig4) check() error {
	if s.diverged > 0 {
		return fmt.Errorf("sim-fig4: %d sweeps' TSV differed from the first sweep's", s.diverged)
	}
	rep, err := experiment.Fig4().Run(s.options(1, nil))
	if err != nil {
		return fmt.Errorf("sim-fig4 reference: %w", err)
	}
	if rep.TSV() != s.tsv {
		return fmt.Errorf("sim-fig4: TSV differs from the sequential reference for seed %d", s.seed)
	}
	return nil
}

// layers reports the runner's worker use over the traced sweeps, and times
// every run of the grid one by one through sim.New and Sim.Run.
func (s *simFig4) layers(*phase) (map[string]float64, []span, error) {
	var (
		newT, runT                       time.Duration
		events, mallocs                  uint64
		searches, nodes, wants, ringsNew int
		spans                            []span
		m0, m1                           runtime.MemStats
	)
	for i, cfg := range s.units {
		t0 := time.Now()
		sm, err := sim.New(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("sim-fig4: unit %d: %w", i, err)
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m0)
		t2 := time.Now()
		res, err := sm.Run()
		t3 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("sim-fig4: unit %d: %w", i, err)
		}
		runtime.ReadMemStats(&m1)
		newT += t1.Sub(t0)
		runT += t3.Sub(t2)
		events += res.Events
		mallocs += m1.Mallocs - m0.Mallocs
		searches += res.RingSearches
		nodes += res.SearchNodesVisited
		wants += res.SearchWantsChecked
		for _, n := range res.RingsStarted {
			ringsNew += n
		}
		name := fmt.Sprintf("%g/%s/%d", cfg.UploadKbps, cfg.Policy, cfg.Seed)
		spans = append(spans, span{"sim.new", name, t0, t1}, span{"sim.run", name, t2, t3})
	}
	n := float64(len(s.units))
	return map[string]float64{
		"runner.efficiency":       median(s.busy),
		"runner.tail_s":           median(s.tails),
		"sim.new_s":               newT.Seconds() / n,
		"sim.run_s":               runT.Seconds() / n,
		"sim.events_per_s":        ratio(float64(events), runT.Seconds()),
		"sim.allocs_per_event":    ratio(float64(mallocs), float64(events)),
		"core.searches_per_event": ratio(float64(searches), float64(events)),
		"core.nodes_per_search":   ratio(float64(nodes), float64(searches)),
		"core.wants_per_search":   ratio(float64(wants), float64(searches)),
		"sim.rings_per_search":    ratio(float64(ringsNew), float64(searches)),
	}, spans, nil
}
