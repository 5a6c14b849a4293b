// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and the live stack from outside, through their public
// functions, on one of these workloads:
//
//	sim-fig4            the quick Figure 4 grid through the parallel runner
//	swarm-plain-tcp     closed-loop downloads over TCP loopback
//	swarm-mediated-tcp  the same loop, striped and mediated, over a durable
//	                    two-shard mediator tier with one corrupt seed
//
// BENCHMARK.json lists the first two. swarm-mediated-tcp is held out of it
// while its output check fails on a defect of the live stack (README.md);
// it still runs by name and reports "correct": false.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics and the tracing overhead
// with --trace 1. A failed output check prints the result with "correct":
// false; a run that cannot measure exits nonzero without a result.
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with --trace 0
// for every workload. An "op" is one download on the live workloads and one
// run of a grid point on sim-fig4; a "sweep" is one full pass over the
// workload's input (the whole grid, or every downloader fetching the whole
// catalog).
// op_tail_s is the workload's tail percentile of op latency (see tailQ).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"completion_ratio", "ratio"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, printed with --trace 1 by every
// workload. A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{"runner.efficiency", "ratio"},
	{"runner.tail_s", "s"},
	{"sim.new_s", "s"},
	{"sim.run_s", "s"},
	{"sim.events_per_s", "1/s"},
	{"sim.allocs_per_event", "count"},
	{"core.searches_per_event", "ratio"},
	{"core.nodes_per_search", "ratio"},
	{"core.wants_per_search", "ratio"},
	{"sim.rings_per_search", "ratio"},
	{"node.wait_p50_s", "s"},
	{"node.transfer_p50_s", "s"},
	{"node.rings_joined", "count"},
	{"node.preemptions", "count"},
	{"transport.block_bytes_per_byte", "ratio"},
	{"transport.wire_bytes_per_byte", "ratio"},
	{"transport.msgs_per_download", "count"},
	{"transport.ctrl_msgs_per_block", "ratio"},
	{"transport.send_busy_s", "s"},
	{"protocol.encode_ns_per_msg", "ns"},
	{"protocol.decode_ns_per_msg", "ns"},
	{"protocol.decode_allocs_per_msg", "count"},
	{"protocol.decode_bytes_per_msg", "B"},
	{"mediator.seal_ns_per_block", "ns"},
	{"mediator.open_ns_per_block", "ns"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// mediatedLayer are the per-layer metrics only a mediated run measures,
// printed after perLayer by swarm-mediated-tcp.
var mediatedLayer = []metricDef{
	{"node.stripes_reassigned", "count"},
	{"node.audit_rejects", "count"},
	{"medclient.deposit.rtt_p50_s", "s"},
	{"medclient.deposit.rtt_p99_s", "s"},
	{"medclient.verify.rtt_p50_s", "s"},
	{"medclient.verify.rtt_p99_s", "s"},
	{"medclient.inflight_peak", "count"},
	{"medclient.rpcs_per_download", "count"},
	{"mediator.deposit.service_p50_s", "s"},
	{"mediator.deposit.service_p99_s", "s"},
	{"mediator.verify.service_p50_s", "s"},
	{"mediator.verify.service_p99_s", "s"},
	{"mediator.nokey_per_verify", "ratio"},
	{"mediator.wal_bytes_per_rpc", "B"},
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 9

// workload is one benchmark workload. A run sets it up, then repeats
// prepare, pass (timed) and settle until its time is spent.
type workload interface {
	// begin starts a measured phase, traced or not.
	begin(traced bool)
	// prepare readies the next pass outside the timing.
	prepare() error
	// pass runs one full pass over the workload's input.
	pass() ([]op, error)
	// settle checks and releases what the pass left, outside the timing.
	settle()
	// layers returns the per-layer metrics of the traced phase just run,
	// and the spans it recorded.
	layers(ph *phase) (map[string]float64, []span, error)
	// check runs the end-of-run output checks; an error means the
	// program's output was wrong.
	check() error
	// tailQ is the op-latency percentile op_tail_s reports: the highest of
	// p95 and p99 that leaves at least ten ops beyond it in a run.
	tailQ() float64
	close()
}

// op is one timed unit of work: a download, or one run of a grid point.
type op struct {
	dur time.Duration
	ok  bool
}

// span is one traced interval at a layer boundary.
type span struct {
	layer, name string
	start, end  time.Time
}

// phase is what one measured phase observed.
type phase struct {
	sweeps    []time.Duration
	ops       []float64 // seconds, completed ops only
	attempted int
	failed    int
	use       usage // summed over the timed passes
	heapPeak  uint64
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	small    bool // shrink the live workloads (tests)
}

// workloads are the workloads BENCHMARK.json lists, in its order.
var workloads = []string{"sim-fig4", "swarm-plain-tcp"}

// heldOut runs by name but is not in BENCHMARK.json while its output check
// fails on a defect of the live stack (README.md, "Held out").
const heldOut = "swarm-mediated-tcp"

// layerDefs are the per-layer metrics a traced run of workload prints.
func layerDefs(workload string) []metricDef {
	if workload == heldOut {
		return append(slices.Clip(perLayer), mediatedLayer...)
	}
	return perLayer
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "sim-fig4":
		return newSimFig4(cfg.seed, runtime.GOMAXPROCS(0))
	case "swarm-plain-tcp":
		return newLive(plainSpec(cfg.small), cfg.seed, cfg.workdir)
	case heldOut:
		return newLive(mediatedSpec(cfg.small), cfg.seed, cfg.workdir)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and %s)", cfg.workload, workloads, heldOut)
}

// runPhase repeats passes until budget has elapsed, at least one pass.
func runPhase(w workload, traced bool, budget time.Duration) (*phase, error) {
	ph := &phase{}
	w.begin(traced)
	heap := watchHeap()
	defer func() { ph.heapPeak = heap.end() }()
	start := time.Now()
	for len(ph.sweeps) == 0 || time.Since(start) < budget {
		if err := w.prepare(); err != nil {
			return nil, err
		}
		u0 := readUsage()
		t0 := time.Now()
		ops, err := w.pass()
		ph.sweeps = append(ph.sweeps, time.Since(t0))
		ph.use = ph.use.add(readUsage().sub(u0))
		if err != nil {
			return nil, err
		}
		for _, o := range ops {
			ph.attempted++
			if o.ok {
				ph.ops = append(ph.ops, o.dur.Seconds())
			} else {
				ph.failed++
			}
		}
		w.settle()
	}
	return ph, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func fill(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// run executes one benchmark run and returns its result. A failed output
// check clears Correct; an error means the run could not measure.
func run(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("workdir: %w", err)
	}
	var (
		w      workload
		setups []time.Duration
	)
	for range setupReps {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		nw, err := newWorkload(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
		w = nw
	}
	defer w.close()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	ph, err := runPhase(w, false, budget)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed}
	passes := float64(len(ph.sweeps))
	e2e := map[string]float64{
		"setup_s":          median(seconds(setups)),
		"sweep_s":          median(seconds(ph.sweeps)),
		"op_p50_s":         quantile(ph.ops, 0.50),
		"op_tail_s":        quantile(ph.ops, w.tailQ()),
		"completion_ratio": ratio(float64(ph.attempted-ph.failed), float64(ph.attempted)),
		"cpu_s":            ph.use.cpu / passes,
		"alloc_mb":         float64(ph.use.alloc) / 1e6 / passes,
		"heap_peak_mb":     float64(ph.heapPeak) / 1e6,
	}
	fmt.Fprintf(log, "%s seed=%d passes=%d ops=%d failed=%d gomaxprocs=%d sweeps=%.3f\n",
		cfg.workload, cfg.seed, len(ph.sweeps), ph.attempted, ph.failed, runtime.GOMAXPROCS(0), seconds(ph.sweeps))
	for _, d := range endToEnd {
		fmt.Fprintf(log, "  %-18s %12.6g %s\n", d.name, e2e[d.name], d.unit)
	}
	res.Metrics = fill(endToEnd, e2e)

	if cfg.trace {
		tph, err := runPhase(w, true, budget)
		if err != nil {
			return nil, err
		}
		layers, spans, err := w.layers(tph)
		if err != nil {
			return nil, err
		}
		layers["runtime.gc_cpu_s"] = tph.use.gcCPU / float64(len(tph.sweeps))
		layers["trace.overhead_ratio"] = ratio(median(seconds(tph.sweeps)), median(seconds(ph.sweeps)))
		res.Attempted += tph.attempted
		res.Failed += tph.failed
		defs := layerDefs(cfg.workload)
		for _, d := range defs {
			fmt.Fprintf(log, "  %-32s %12.6g %s\n", d.name, layers[d.name], d.unit)
		}
		res.Metrics = fill(defs, layers)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
	}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Fprintln(log, "perfbench: output check failed:", err)
	}
	return res, nil
}

// writeSpans writes the traced spans as TSV: layer, name, start and end in
// nanoseconds from the first span's start.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	var werr error
	for _, s := range spans {
		if _, err := fmt.Fprintf(f, "%s\t%s\t%d\t%d\n", s.layer, s.name, s.start.Sub(origin), s.end.Sub(origin)); err != nil {
			werr = err
			break
		}
	}
	return errors.Join(werr, f.Close())
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload: one of %v, or %s", workloads, heldOut))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory (WAL files, spans)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
