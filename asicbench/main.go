// Command asicbench is the repository's end-to-end benchmark. It drives
// the design-space explorer the way its users do — the CLI's design
// path, the asiccloudd HTTP service, a coordinator with TCP workers, and
// the paper-figure regeneration — and prints one JSON result line.
//
// Usage (from the repository root; asicbench/run.sh builds and runs it):
//
//	asicbench --workload design|service|distributed|figures \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics of the named workload with
// tracing off. --trace 1 is the separate traced run: the benchmark's own
// code records spans around its calls into each module and reports
// per-layer metrics. The per-layer metrics describe every layer, so the
// traced run covers them all: the named workload runs for the full run
// length, then each other workload for one short pass (see runTraced).
// BENCHMARK.json at the checkout root names the metrics each mode
// reports; a run that cannot report one of them fails. The last line
// of standard output is
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// and the line before it carries the run stamp, sample counts and
// per-layer self times. Every operation's output is checked; any
// mismatch or error is counted as failed and makes the exit status 1.
// See asicbench/README.md for the metrics and why each workload exists.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the repository checkout (references: results/, golden
	// digests); build holds binaries, temp output and trace files.
	root, build string
	stderr      io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"design":      runDesign,
	"service":     runService,
	"distributed": runDistributed,
	"figures":     runFigures,
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("asicbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "design, service, distributed or figures")
	seed := fl.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fl.Int("seconds", 10, "measured run length in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := fl.String("root", ".", "repository checkout holding results/ and asicbench/golden/")
	build := fl.String("build", ".bench_build", "directory for binaries, temp output and trace files")
	figure := fl.String("figure-child", "", "time one figures function in this fresh process (used by the figures workload)")
	gen := fl.Bool("gen-golden", false, "recompute every golden digest from this tree and rewrite asicbench/golden/")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *figure != "" {
		return figureChild(*figure, stdout, stderr)
	}
	if *gen {
		if err := genGolden(*root); err != nil {
			fmt.Fprintf(stderr, "asicbench: %v\n", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "asicbench: need --workload design|service|distributed|figures, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, build: *build, stderr: stderr}
	if err := checkRoot(cfg.root); err != nil {
		fmt.Fprintf(stderr, "asicbench: %v\n", err)
		return 1
	}
	m, err := loadManifest(cfg.root)
	if err != nil {
		fmt.Fprintf(stderr, "asicbench: %v\n", err)
		return 1
	}
	began, cpu0 := time.Now(), snapCPU()
	var out *outcome
	if cfg.trace {
		out, err = runTraced(cfg)
	} else {
		out, err = runner(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "asicbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := emit(stdout, cfg, m, out, time.Since(began), cpu0.stealTo(snapCPU())); err != nil {
		fmt.Fprintf(stderr, "asicbench: %v\n", err)
		return 1
	}
	if out.failed > 0 || len(out.failures) > 0 {
		return 1
	}
	return 0
}

// checkRoot refuses to run outside a full checkout: without the module
// and the references there is nothing correct to measure against.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "BENCHMARK.json", "results", filepath.Join("asicbench", "golden")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not a repository checkout: %w", root, err)
		}
	}
	return nil
}

// manifest is the part of BENCHMARK.json the benchmark reads: the
// metrics each mode must report, with their units.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(root string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, errors.New("BENCHMARK.json names no end_to_end or no per_layer metric")
	}
	return m, nil
}

// workloadOrder is the order runTraced visits the other workloads in.
var workloadOrder = []string{"design", "service", "distributed", "figures"}

// shortPass is the run length of the traced run's passes over the
// workloads it was not named for. Workloads that run in rounds still
// run two whole ones (config.more), one traced and one untraced.
const shortPass = time.Second

// runTraced is the traced run. It runs the named workload traced for the
// run length, then every other workload traced for a short pass, and
// merges the passes: each pass's metrics, sample counts and layer times
// are prefixed with its workload ("service.hit_p50_ms",
// "design.core.grid_build_s"), its spans go to a trace file of its own,
// and operations and failures add up.
func runTraced(cfg config) (*outcome, error) {
	merged := newOutcome()
	merged.selfTime, merged.totalTime = map[string]float64{}, map[string]float64{}
	passes := []string{cfg.workload}
	for _, w := range workloadOrder {
		if w != cfg.workload {
			passes = append(passes, w)
		}
	}
	for _, w := range passes {
		c := cfg
		c.workload = w
		if w != cfg.workload {
			c.seconds = shortPass
		}
		o, err := workloads[w](c)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", w, err)
		}
		path := filepath.Join(cfg.build, "traces",
			fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, w))
		if err := writeJSONFile(path, o.spans); err != nil {
			return nil, err
		}
		merged.traceFiles = append(merged.traceFiles, path)
		merged.absorb(w, o)
	}
	return merged, nil
}

// absorb adds one traced pass of workload w to the merged outcome.
func (o *outcome) absorb(w string, p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		o.failures = append(o.failures, w+": "+f)
	}
	for name, v := range p.metrics {
		o.metrics[w+"."+name] = v
	}
	for name, n := range p.samples {
		o.samples[w+"."+name] = n
	}
	for name := range p.derived {
		o.derived[w+"."+name] = true
	}
	for name, n := range p.setAside {
		o.setAside[w+"."+name] = n
	}
	total, self := layerTimes(p.spans)
	for name, t := range self {
		o.selfTime[w+":"+name] = t.Seconds()
		o.totalTime[w+":"+name] = total[name].Seconds()
	}
	o.runLength += p.runLength
}

// more reports whether a workload alternating traced and untraced
// rounds should start another: while the run length lasts, and in a
// traced run until both halves have one round each.
func (cfg config) more(start time.Time, done int) bool {
	return time.Since(start) < cfg.seconds || (cfg.trace && done < 2)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// samples is the number of raw samples behind each metric that is a
	// median, quantile or ratio of sums.
	samples map[string]int
	// derived names per-layer metrics computed as differences or ratios
	// of other measurements rather than timed directly.
	derived  map[string]bool
	failures []string
	spans    []span
	// selfTime and totalTime (seconds per "workload:span name") and
	// traceFiles are filled in by runTraced.
	selfTime, totalTime map[string]float64
	traceFiles          []string
	// setAside counts, per metric, operations left out of it for
	// hypervisor steal (see quiet).
	setAside map[string]int
	// runLength is the measured window actually spent (whole operations
	// only, so it can exceed --seconds by one operation).
	runLength time.Duration
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}, derived: map[string]bool{},
		setAside: map[string]int{}}
}

// set records a metric; non-finite values are dropped with a failure
// note, because JSON cannot carry them and a NaN metric is a bug.
func (o *outcome) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.failures = append(o.failures, fmt.Sprintf("metric %s is not finite", name))
		return
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		o.samples[name] = n
	}
}

// setDerived records a metric computed as a difference or ratio of
// other measurements.
func (o *outcome) setDerived(name, unit string, v float64, n int) {
	o.set(name, unit, v, n)
	o.derived[name] = true
}

// setMedian records the nearest-rank median of xs (scaled by k).
func (o *outcome) setMedian(name, unit string, xs []float64, k float64) {
	if v, ok := quantile(xs, 0.5); ok {
		o.set(name, unit, v*k, len(xs))
	}
}

// setQuietMedian records the median wall time of the operations quiet
// keeps, in seconds scaled by k, and how many it set aside. It returns
// the median in seconds.
func (o *outcome) setQuietMedian(name, unit string, ops []opTime, k float64) float64 {
	xs, aside := quiet(ops)
	v, ok := quantile(xs, 0.5)
	if !ok {
		return 0
	}
	o.set(name, unit, v*k, len(xs))
	if aside > 0 {
		o.setAside[name] = aside
	}
	return v
}

// roundMedian is the nearest-rank median of one round of a workload in
// which operation kind i occurs counts[i] times, every occurrence at
// that kind's median time meds[i]. Taking the median over the round's
// fixed mix, rather than over the raw operations, keeps the kinds in
// their proportions when operations are set aside for steal.
func roundMedian(meds, counts []float64) (float64, bool) {
	var xs []float64
	for i, m := range meds {
		for n := 0; n < int(counts[i]); n++ {
			xs = append(xs, m)
		}
	}
	return quantile(xs, 0.5)
}

// setP90 records the nearest-rank p90 of xs when at least minTail
// samples lie beyond it; otherwise the metric is omitted and the sample
// count says why.
func (o *outcome) setP90(name, unit string, xs []float64, k float64) {
	if v, ok := tailQuantile(xs, 0.9); ok {
		o.set(name, unit, v*k, len(xs))
		return
	}
	o.samples[name] = len(xs)
}

// fail counts one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// Unit conversions for reported values.
const (
	msPerSecond = float64(time.Second / time.Millisecond)
	usPerSecond = float64(time.Second / time.Microsecond)
	mib         = 1 << 20
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detailLine precedes it: the run stamp plus what a reader needs to
// trust the numbers.
type detailLine struct {
	Stamp    stamp          `json:"stamp"`
	Samples  map[string]int `json:"samples"`
	SetAside map[string]int `json:"steal_set_aside,omitempty"`
	Derived  []string       `json:"derived,omitempty"`
	// Other holds what the workload measured beyond the mode's
	// manifest metrics, such as the end-to-end figures a traced run
	// also takes from its untraced rounds, or a p90 with enough tail.
	Other      map[string]metric  `json:"other_metrics,omitempty"`
	SelfTimeS  map[string]float64 `json:"self_time_s,omitempty"`
	TotalTimeS map[string]float64 `json:"total_time_s,omitempty"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	TraceFiles []string           `json:"trace_files,omitempty"`
}

// emit writes the detail line and the result line. The result carries
// exactly the manifest's metrics for the run's mode (end_to_end
// untraced, per_layer traced); a metric the run could not measure, or
// measured in another unit, is an error and no result is printed.
func emit(w io.Writer, cfg config, m manifest, out *outcome, wall time.Duration, steal float64) error {
	if out.attempted < 1 {
		return errors.New("no operation completed in the run")
	}
	want := m.EndToEnd
	if cfg.trace {
		want = m.PerLayer
	}
	metrics := map[string]metric{}
	var missing []string
	for _, mm := range want {
		v, ok := out.metrics[mm.Name]
		switch {
		case !ok:
			missing = append(missing, mm.Name)
		case v.Unit != mm.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", mm.Name, v.Unit, mm.Unit)
		default:
			metrics[mm.Name] = v
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run measured no %s (failures: %v)", strings.Join(missing, ", "), out.failures)
	}
	d := detailLine{
		Stamp:      newStamp(cfg, out.runLength, wall, steal),
		Samples:    out.samples,
		SetAside:   out.setAside,
		Other:      map[string]metric{},
		SelfTimeS:  out.selfTime,
		TotalTimeS: out.totalTime,
		FailedFrac: float64(out.failed) / float64(out.attempted),
		Failures:   out.failures,
		TraceFiles: out.traceFiles,
	}
	for name, v := range out.metrics {
		if _, ok := metrics[name]; !ok {
			d.Other[name] = v
		}
	}
	for name := range out.derived {
		d.Derived = append(d.Derived, name)
	}
	sort.Strings(d.Derived)
	res := resultLine{
		Correct:   out.failed == 0 && len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return bw.Flush()
}

// writeJSONFile writes v as indented JSON, creating parent directories.
func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stamp records where and how the numbers were measured.
type stamp struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	RunLengthS   float64 `json:"run_length_s"`
	WallS        float64 `json:"wall_s"`
	Traced       bool    `json:"traced"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	// StealFrac is the machine's CPU time stolen by the hypervisor over
	// the run, as a share of all CPU time (/proc/stat): on a shared
	// virtual machine it is what moves wall times between runs.
	StealFrac float64 `json:"steal_frac"`
}

func newStamp(cfg config, runLength, wall time.Duration, steal float64) stamp {
	return stamp{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds.Seconds(),
		RunLengthS:   runLength.Seconds(),
		WallS:        wall.Seconds(),
		Traced:       cfg.trace,
		Commit:       commitOf(cfg.root),
		SourceSHA256: sourceDigest(cfg.root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		StealFrac:    steal,
	}
}

// commitOf names the checked-out commit, or says there is none: a
// benchmark checkout may be a plain export of the tree, in which case
// the source digest identifies the code instead.
func commitOf(root string) string {
	// Only the checkout's own .git: git would otherwise find an
	// enclosing repository and name its commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none (not a git checkout; see source_sha256)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout; see source_sha256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the module (paths and
// contents, in sorted path order), skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown: " + err.Error()
		}
		rel, _ := filepath.Rel(root, p) // p was walked from root
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSnap is one reading of the machine-wide CPU time counters of
// /proc/stat: all time (user through steal) and the hypervisor's steal.
type cpuSnap struct{ total, steal uint64 }

func snapCPU() cpuSnap {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSnap{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...]
	var c cpuSnap
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuSnap{}
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealTo is the share of the machine's CPU time stolen between a and b.
func (a cpuSnap) stealTo(b cpuSnap) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// maxOpSteal is the share of the machine's CPU time the hypervisor may
// steal while an operation runs before its timing is set aside.
const maxOpSteal = 0.02

// opTime is one operation's wall time and the steal share while it ran.
type opTime struct {
	d     time.Duration
	steal float64
}

// timeOp runs op and times it.
func timeOp(op func()) opTime {
	c0, t0 := snapCPU(), time.Now()
	op()
	d := time.Since(t0)
	return opTime{d: d, steal: c0.stealTo(snapCPU())}
}

// seconds returns every operation's wall time in seconds.
func seconds(ops []opTime) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = o.d.Seconds()
	}
	return xs
}

// quiet returns the wall times in seconds of the operations that ran
// with at most maxOpSteal of the machine's CPU stolen — on a shared
// virtual machine, steal bursts are what move wall times between runs —
// or of all operations when fewer than half ran undisturbed. It also
// returns how many it set aside.
func quiet(ops []opTime) ([]float64, int) {
	var kept []float64
	for _, o := range ops {
		if o.steal <= maxOpSteal {
			kept = append(kept, o.d.Seconds())
		}
	}
	if 2*len(kept) < len(ops) {
		return seconds(ops), 0
	}
	return kept, len(ops) - len(kept)
}

// peakRSSMB is this process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}

// totalAlloc is runtime.MemStats.TotalAlloc (cumulative heap bytes).
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// medianOf returns the nearest-rank median of the durations.
func medianOf(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	v, _ := quantile(xs, 0.5)
	return time.Duration(v)
}

// setupRepeats is how many times each workload performs its set-up in a
// run; setup_s is the median, which keeps one slow start (page faults,
// a GC) from moving the figure.
const setupRepeats = 31

// setUp performs a workload's set-up setupRepeats times, calling undo
// (untimed) between repeats, and records the median as setup_s. The last
// set-up's state is the one the workload runs on. Traced runs report
// per-layer metrics only, so they skip the record.
func (o *outcome) setUp(cfg config, step func() error, undo func()) error {
	ds := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		t0 := time.Now()
		if err := step(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0))
	}
	if !cfg.trace {
		o.set("setup_s", "s", medianOf(ds).Seconds(), len(ds))
	}
	return nil
}
