// Command bench is the repository's benchmark: five named workloads that
// each load a different part of the dispatch stack, end-to-end metrics
// from untraced runs and per-layer metrics from a separate traced run.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloads = []*workload{
	&oltpWorkload, &commitWorkload, &scanWorkload, &ingestWorkload, &shardWorkload,
}

const (
	// setupRepeats is how often a run sets the workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setupRepeats = 7
	// windows is how many equal phases the measured seconds are cut
	// into. Clients are joined between phases, so the in-memory log can
	// be checkpointed outside the measurement and a traced run can
	// alternate untraced and traced phases. Every end-to-end metric is
	// the median over the phases: the sandbox's noise comes in bursts of a
	// second or two, and a burst then moves one phase, not the result.
	windows = 5
)

type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	scale     float64
	trace     bool
	out       string // directory for result and trace files; "" writes none
	scratch   string // parent of the per-run scratch directories
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Phases holds the per-phase values the median was taken over (for
	// setup_s, the repeats). Not part of the result line.
	Phases []float64 `json:"phases,omitempty"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Name        string `json:"name"`
	InputSHA256 string `json:"input_sha256"`
	Samples     int64  `json:"samples"`
	resultLine
}

// resultFile is what -out writes: the results and the environment that
// produced them.
type resultFile struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	CPU        string           `json:"cpu"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Scale      float64          `json:"scale"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workload names (default: all five)")
	seed := fs.Uint64("seed", 1987, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload (warm-up is a tenth more)")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	scale := fs.Float64("scale", 1, "data size factor; smoke tests only, every reported number uses 1")
	out := fs.String("out", "", "directory for the result file and trace files (default: write none)")
	scratch := fs.String("scratch", ".bench_build", "parent directory for file-backed state, removed afterwards")
	compare := fs.Bool("compare", false, "compare two sets of runs: -compare A1.json,A2.json,... B1.json,B2.json,...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A1.json,A2.json,... B1.json,B2.json,...")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	opts := options{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0,
		out: *out, scratch: *scratch}
	if *names == "" {
		opts.workloads = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w := findWorkload(n)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
			return 2
		}
		opts.workloads = append(opts.workloads, w)
	}
	if opts.seconds <= 0 || opts.scale <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	if opts.out != "" {
		if err := os.MkdirAll(opts.out, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	file := resultFile{Commit: gitCommit(), GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opts.seed, Seconds: opts.seconds, Scale: opts.scale, Trace: opts.trace}
	fmt.Fprintf(stdout, "# commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d seed=%d seconds=%g trace=%v\n",
		file.Commit, file.GoVersion, file.CPU, file.NProc, file.GOMAXPROCS, opts.seed, opts.seconds, opts.trace)
	code := 0
	for _, w := range opts.workloads {
		res, err := runWorkload(w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		defs := endToEnd
		if opts.trace {
			defs = perLayer
		}
		for _, d := range defs {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, d.name, res.Metrics[d.name].Value, d.unit)
		}
		fmt.Fprintf(stdout, "# %s: op=%q clients=%d samples=%d input_sha256=%s\n",
			w.name, w.op, w.clients, res.Samples, res.InputSHA256)
		file.Workloads = append(file.Workloads, *res)
		if !res.Correct {
			code = 1
		}
		line := res.resultLine
		line.Metrics = make(map[string]metricValue, len(res.Metrics))
		for k, v := range res.Metrics {
			line.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
		}
		raw, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	if opts.out != "" {
		name := fmt.Sprintf("result-%d.json", opts.seed)
		if opts.trace {
			name = fmt.Sprintf("result-trace-%d.json", opts.seed)
		}
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(opts.out, name), append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runWorkload sets a workload up, measures it and checks its outputs.
func runWorkload(w *workload, opts options) (*workloadResult, error) {
	if err := os.MkdirAll(opts.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &workloadResult{Name: w.name}
	res.Metrics = map[string]metricValue{}
	cfg := config{seed: opts.seed, scale: opts.scale}
	res.InputSHA256 = inputHash(w, cfg)

	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
		}
		cfg.dir = filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	meters := make([]*meter, w.clients)
	tracers := make([]*tracer, w.clients)
	epoch := time.Now()
	for c := range meters {
		meters[c] = &meter{}
		if opts.trace {
			tracers[c] = newTracer(epoch, c)
		}
	}
	phase := time.Duration(opts.seconds / windows * float64(time.Second))
	runtime.GC()
	warm, err := runPhase(w, inst, meters, phase/2, false)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = warm.ops, warm.failed

	// An untraced run measures five equal phases. A traced run cuts each
	// in two and alternates untraced and traced halves: several workloads
	// slow down as their data grows, and alternating keeps that drift out
	// of the traced/untraced comparison.
	durs := []time.Duration{phase, phase, phase, phase, phase}
	if opts.trace {
		durs = make([]time.Duration, 2*windows)
		for i := range durs {
			durs[i] = phase / 2
		}
	}
	var plain, traced []window
	for i, dur := range durs {
		tracing := opts.trace && i%2 == 1
		for c, m := range meters {
			m.tr = nil
			if tracing {
				m.tr = tracers[c]
			}
		}
		win, err := runPhase(w, inst, meters, dur, opts.trace)
		if err != nil {
			return nil, err
		}
		res.Attempted += win.ops
		res.Failed += win.failed
		res.Samples += win.ops
		if tracing {
			traced = append(traced, win)
		} else {
			plain = append(plain, win)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	checks, bad, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("end-of-run check: %w", err)
	}
	res.Attempted += checks
	res.Failed += bad
	info := inst.info()
	runsMax := float64(inst.db().Env.MetricsSnapshot().LSM.RunsMax)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.Correct = res.Failed == 0

	put := func(d metricDef, v float64, per []float64) {
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit, Phases: per}
	}
	if !opts.trace {
		per := func(f func(*window) float64) []float64 {
			v := make([]float64, len(plain))
			for i := range plain {
				v[i] = f(&plain[i])
			}
			return v
		}
		fns := map[string]func(*window) float64{
			"ops_per_s":     func(w *window) float64 { return w.opsPerSec() },
			"p50_us":        func(w *window) float64 { return w.h.quantile(0.50) / 1e3 },
			"p95_us":        func(w *window) float64 { return w.h.quantile(0.95) / 1e3 },
			"allocs_per_op": func(w *window) float64 { return ratio(float64(w.mallocs), float64(w.ops)) },
		}
		for _, d := range endToEnd {
			if f := fns[d.name]; f != nil {
				v := per(f)
				put(d, median(v), v)
			}
		}
		res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Phases: setups}
		return res, nil
	}

	in := layerInputs{plain: sumWindows(plain), traced: sumWindows(traced), info: info,
		heapMB: float64(ms.HeapAlloc) / (1 << 20), runsMax: runsMax}
	for _, t := range tracers {
		for l := range in.sums {
			in.sums[l].n += t.sums[l].n
			in.sums[l].total += t.sums[l].total
			in.sums[l].withKids += t.sums[l].withKids
			in.sums[l].selfT += t.sums[l].selfT
		}
	}
	lm := layerMetrics(in)
	for _, d := range perLayer {
		put(d, lm[d.name], nil)
	}
	if opts.out != "" {
		if err := writeTrace(filepath.Join(opts.out, "trace-"+w.name+".json"), tracers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func sumWindows(ws []window) window {
	var s window
	for i := range ws {
		w := &ws[i]
		s.add(w.tally)
		s.wall += w.wall
		s.mallocs += w.mallocs
		s.bytes += w.bytes
		s.gcPause += w.gcPause
		s.h.merge(&w.h)
		s.delta = s.delta.plus(w.delta)
		s.opsPerBusySec += w.opsPerBusySec / float64(len(ws))
	}
	return s
}

// gitCommit reads the checked-out commit from .git in the working
// directory without starting a process; a checkout that is not a git
// repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if raw, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
