package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asiccloud/internal/figures"
)

// figureFuncs lists every figures.* entry point in the order paperfigs
// calls them (figures.All, then figures.Extensions), keyed by the
// artifact ids each one renders.
var figureFuncs = []struct {
	name string
	run  func() ([]figures.Artifact, error)
}{
	{"fig1", one(figures.Figure1)},
	{"fig5", func() ([]figures.Artifact, error) { return []figures.Artifact{figures.Figure5()}, nil }},
	{"fig6", one(figures.Figure6)},
	{"fig8", one(figures.Figure8)},
	{"fig9", one(figures.Figure9)},
	{"fig10", one(figures.Figure10)},
	{"fig11", one(figures.Figure11)},
	{"fig12_table3", two(figures.Figure12Table3)},
	{"fig13", one(figures.Figure13)},
	{"stacking", one(figures.VoltageStacking)},
	{"fig14_table4", two(figures.Figure14Table4)},
	{"fig15_table5", two(figures.Figure15Table5)},
	{"fig16", one(figures.Figure16)},
	{"fig17_table6", two(figures.Figure17Table6)},
	{"table7", one(figures.Table7)},
	{"fig18", one(figures.Figure18)},
	{"scorecard", one(figures.Scorecard)},
	{"extensions", figures.Extensions},
}

func one(f func() (figures.Artifact, error)) func() ([]figures.Artifact, error) {
	return func() ([]figures.Artifact, error) {
		a, err := f()
		return []figures.Artifact{a}, err
	}
}

func two(f func() (figures.Artifact, figures.Artifact, error)) func() ([]figures.Artifact, error) {
	return func() ([]figures.Artifact, error) {
		a, b, err := f()
		return []figures.Artifact{a, b}, err
	}
}

// figureChild times one figures function in this (fresh) process and
// prints its wall time in seconds. The artifacts it renders are checked
// against the parent's references by the parent's paperfigs runs; here
// only failure matters.
func figureChild(name string, stdout, stderr io.Writer) int {
	for _, f := range figureFuncs {
		if f.name != name {
			continue
		}
		t0 := time.Now()
		if _, err := f.run(); err != nil {
			fmt.Fprintf(stderr, "asicbench: figure %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, time.Since(t0).Seconds())
		return 0
	}
	fmt.Fprintf(stderr, "asicbench: unknown figure %q\n", name)
	return 2
}

// loadReferences reads results/ except lint.json (which paperfigs does
// not write) into memory.
func loadReferences(root string) (map[string][]byte, error) {
	dir := filepath.Join(root, "results")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	refs := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || e.Name() == "lint.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		refs[e.Name()] = data
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("no reference artifacts in %s", dir)
	}
	return refs, nil
}

// diffOutput compares a paperfigs output directory against the
// references byte for byte, both ways.
func diffOutput(dir string, refs map[string][]byte) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var bad []string
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		seen[e.Name()] = true
		if ref, ok := refs[e.Name()]; !ok || !bytes.Equal(ref, data) {
			bad = append(bad, e.Name())
		}
	}
	for name := range refs {
		if !seen[name] {
			bad = append(bad, name+" (missing)")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("output differs from results/: %s", strings.Join(bad, ", "))
	}
	return nil
}

// runPaperfigs runs the built paperfigs into a fresh directory and
// returns its wall time and peak RSS (MiB, from the child's rusage).
func runPaperfigs(bin, dir string) (time.Duration, float64, error) {
	cmd := exec.Command(bin, "-out", dir)
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	d := time.Since(t0)
	if err != nil {
		return d, 0, fmt.Errorf("paperfigs: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / mib
	}
	return d, rss, nil
}

// runFigures is the figures workload: whole paperfigs runs, each into a
// fresh directory byte-diffed against results/. The traced run also
// times every figures function in its own fresh process.
func runFigures(cfg config) (*outcome, error) {
	out := newOutcome()
	bin, err := filepath.Abs(filepath.Join(cfg.build, "paperfigs"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("paperfigs binary not built: %w", err)
	}
	tmp := filepath.Join(cfg.build, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var refs map[string][]byte
	err = out.setUp(cfg, func() error {
		var err error
		refs, err = loadReferences(cfg.root)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	tr := newTracer(cfg.trace)
	var walls []opTime
	var tracedWalls []float64
	var rss float64
	start := time.Now()
	for i := 0; cfg.more(start, i); i++ {
		traced := cfg.trace && i%2 == 1
		dir, err := os.MkdirTemp(tmp, "paperfigs-")
		if err != nil {
			return nil, err
		}
		t := offTracer
		if traced {
			t = tr
		}
		sp := t.begin("figures.paperfigs", -1)
		cpu0 := snapCPU()
		d, r, err := runPaperfigs(bin, dir)
		steal := cpu0.stealTo(snapCPU())
		t.end(sp)
		out.attempted++
		if err == nil {
			err = diffOutput(dir, refs)
		}
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			out.fail("%v", err)
			continue
		}
		rss = max(rss, r)
		if traced {
			tracedWalls = append(tracedWalls, d.Seconds())
		} else {
			walls = append(walls, opTime{d: d, steal: steal})
		}
	}
	out.runLength = time.Since(start)
	// A round of this workload is one paperfigs run.
	if round := out.setQuietMedian("round_s", "s", walls, 1); round > 0 {
		out.set("op_p50_ms", "ms", round*msPerSecond, out.samples["round_s"])
	}
	out.set("peak_rss_mb", "MB", rss, len(walls))
	if !cfg.trace {
		return out, nil
	}
	u, ok1 := quantile(seconds(walls), 0.5)
	tv, ok2 := quantile(tracedWalls, 0.5)
	if ok1 && ok2 {
		out.setDerived("trace_overhead_frac", "frac", (tv-u)/u, len(tracedWalls))
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for _, f := range figureFuncs {
		sp := tr.begin("figures."+f.name, -1)
		cmd := exec.Command(self, "--figure-child", f.name)
		cmd.Stderr = cfg.stderr
		o, err := cmd.Output()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.name, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(o)), 64)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.name, err)
		}
		out.set(f.name+"_s", "s", v, 1)
	}
	out.spans = tr.snapshot()
	return out, nil
}
