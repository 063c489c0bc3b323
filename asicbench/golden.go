package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	appcnn "asiccloud/internal/apps/cnn"
	"asiccloud/internal/core"
	"asiccloud/internal/service"
)

// goldenPath is the committed digest file, relative to the checkout.
var goldenPath = filepath.Join("asicbench", "golden", "digests.txt")

// digestLen is how many hex digits of SHA-256 a golden keeps: 64 bits
// is ample to catch any changed output.
const digestLen = 16

func shortSHA(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])[:digestLen]
}

// requestHashField prefixes the one field of a service result that
// names the request-hash scheme rather than the design answer.
var requestHashField = []byte(`"request_hash":"`)

// resultDigest digests a service result body with the request hash's
// value left out, so a hash-scheme version bump (which legitimately
// renames every cache key) does not read as a wrong design answer. The
// full bytes are still compared against service.RunOnce.
func resultDigest(body []byte) string {
	if i := bytes.Index(body, requestHashField); i >= 0 {
		rest := body[i+len(requestHashField):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			body = append(append(append([]byte(nil), body[:i+len(requestHashField)]...), '"'), rest[j+1:]...)
		}
	}
	return shortSHA(body)
}

// sweepDigest digests what `asiccloud design` reports for a core sweep:
// the Pareto frontier and the four optima (CLI rendering plus the exact
// metric values) and the candidate accounting.
func sweepDigest(res core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated %d feasible %d\n", res.Pruned.Generated, res.Pruned.Feasible)
	line := func(tag string, p core.Point) {
		fmt.Fprintf(&b, "%s %s %s %s %s %s\n", tag, p.Describe(), g(p.DollarsPerOp), g(p.WattsPerOp),
			g(p.TCOPerOp()), g(p.CO2PerOp()))
	}
	for _, p := range res.Frontier {
		line("frontier", p)
	}
	line("energy", res.EnergyOptimal)
	line("cost", res.CostOptimal)
	line("tco", res.TCOOptimal)
	line("carbon", res.CarbonOptimal)
	return shortSHA([]byte(b.String()))
}

// cnnDigest digests the three cnn optima `asiccloud design -app cnn`
// prints.
func cnnDigest(energy, cost, tcoOpt appcnn.Evaluation) string {
	var b strings.Builder
	for _, e := range []appcnn.Evaluation{energy, cost, tcoOpt} {
		fmt.Fprintf(&b, "%s %d %s %s %s\n", e.Shape, e.Systems, g(e.Eval.WattsPerOp), g(e.Eval.DollarsPerOp), g(e.TCOPerOp()))
	}
	return shortSHA([]byte(b.String()))
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldens maps catalog keys to digests.
type goldens map[string]string

func loadGoldens(root string) (goldens, error) {
	f, err := os.Open(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := goldens{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, line)
		}
		out[k] = v
	}
	return out, sc.Err()
}

// check compares a digest against the golden for key.
func (gs goldens) check(key, digest string) error {
	want, ok := gs[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden digest", key)
	case want != digest:
		return fmt.Errorf("%s: output digest %s, golden %s", key, digest, want)
	}
	return nil
}

// genGolden recomputes every golden digest from the tree and rewrites
// the golden file. Service and distributed entries are the digests of
// service.RunOnce's bytes; design entries come from the design
// workload's own calls.
func genGolden(root string) error {
	var keys []benchRequest
	for i := 0; i < hotCatalog; i++ {
		keys = append(keys, catalogEntry("hot", i))
	}
	for i := 0; i < econCatalog; i++ {
		keys = append(keys, catalogEntry("econ", i))
	}
	for i := 0; i < geomCatalog; i++ {
		keys = append(keys, catalogEntry("geom", i))
	}
	for _, app := range distApps {
		for j := 0; j < distVariants; j++ {
			keys = append(keys, benchRequest{Key: fmt.Sprintf("dist/%s/%d", app, j), Req: distRequest(app, j)})
		}
	}
	out := goldens{}
	for _, app := range designApps {
		d, err := app.run(context.Background(), offTracer, -1)
		if err != nil {
			return fmt.Errorf("design %s: %w", app.name, err)
		}
		out["design/"+app.name] = d.digest
	}

	// Two workers, each taking every other key.
	const workers = 2
	digests := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				body, err := service.RunOnce(context.Background(), &keys[i].Req, nil, nil)
				if err == nil {
					err = feasible(body)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", keys[i].Key, err)
					continue
				}
				digests[i] = resultDigest(body)
			}
		}(w)
	}
	wg.Wait()
	for i, r := range keys {
		if errs[i] != nil {
			return errs[i]
		}
		out[r.Key] = digests[i]
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Golden output digests: catalog key, first 16 hex digits of SHA-256.\n")
	b.WriteString("# Regenerate with: go run ./asicbench --gen-golden\n")
	for _, k := range names {
		fmt.Fprintf(&b, "%s %s\n", k, out[k])
	}
	return os.WriteFile(filepath.Join(root, goldenPath), []byte(b.String()), 0o644)
}

// feasible rejects a result with no feasible design: every catalog
// request must have an answer, or the workload would measure failures.
func feasible(body []byte) error {
	if bytes.Contains(body, []byte(`"feasible":0,`)) {
		return fmt.Errorf("no feasible design")
	}
	return nil
}
