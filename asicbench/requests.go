package main

import (
	"fmt"
	"sync"

	"asiccloud/internal/service"
)

// The service and distributed workloads draw their requests from fixed
// catalogs, so every request a seed can generate has a golden digest
// committed in asicbench/golden/. A catalog entry is a pure function of
// its index; the seed picks which entries a run visits and in what
// order. Entries within a class never repeat inside a run shorter than
// the catalog, so a "miss" request really misses the result cache.
const (
	// hotCatalog is the pool the hot set is drawn from.
	hotCatalog = 64
	// hotSet is how many distinct hot requests a run repeats.
	hotSet = 16
	// econCatalog and geomCatalog bound the economics-only and
	// geometry-changing variants. Walks use strides coprime to both 4 and
	// 3, so consecutive requests cycle through the catalog's app (i%4) and
	// geometry kind (i%3) classes in exact proportions for every seed.
	econCatalog = 1024
	geomCatalog = 768
	// distVariants is the number of economics variants per app the
	// distributed workload draws from.
	distVariants = 16
)

func fp(v float64) *float64 { return &v }

// prng is the benchmark's input generator: SplitMix64, seeded from
// --seed. It is a small explicit function of the seed, so the same seed
// yields the same inputs on every Go version.
type prng struct{ s uint64 }

func newPRNG(seed int64) *prng { return &prng{s: uint64(seed)} }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is negligible for the
// small n used here.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// perm returns a random permutation of [0, n) (Fisher-Yates).
func (p *prng) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// econRequest is economics-only variant i: a bitcoin (3 in 4) or
// litecoin request whose TCO, carbon model or objective differs from
// every other entry's. The geometry is the app's default, so the result
// cache misses while the shared engine's thermal-plan cache hits.
func econRequest(i int) service.Request {
	app := "bitcoin"
	if i%4 == 3 {
		app = "litecoin"
	}
	return econVariant(app, i)
}

// econVariant changes one economics parameter of app, uniquely per j.
func econVariant(app string, j int) service.Request {
	step := float64(j / 3)
	req := service.Request{App: app}
	switch j % 3 {
	case 0:
		req.TCO = &service.TCOSpec{ElectricityPerKWh: fp(0.03 + 0.0001*step)}
	case 1:
		req.Carbon = &service.CarbonSpec{GridGCO2ePerKWh: fp(50 + 0.5*step)}
	default:
		req.Objective = "carbon"
		req.Carbon = &service.CarbonSpec{Utilization: fp(0.5 + 0.0005*step)}
	}
	return req
}

// geomRequest is geometry-changing variant i: a custom RCA whose area
// is unique to the entry, so every die size differs and the thermal-plan
// cache misses; one in three also narrows the silicon-per-lane series,
// and one in three adds a DRAM device of a rotating kind.
func geomRequest(i int) service.Request {
	req := service.Request{App: "custom", RCA: &service.RCASpec{
		Name:                "bench-rca",
		PerfUnit:            "GH/s",
		AreaMM2:             0.66 * (1 + 0.0001*float64(i+1)),
		NominalPerf:         0.83,
		NominalPowerDensity: 2.0,
	}}
	switch i % 3 {
	case 1:
		req.Sweep.SiliconPerLane = []float64{50, 130, 330, 850, 2200, 6000}
	case 2:
		req.Sweep.DRAMPerASIC = []int{1}
		req.Sweep.DRAMKind = []string{"DDR4", "GDDR5", "HBM"}[(i/3)%3]
	}
	return req
}

// hotRequest is hot-catalog entry i: bitcoin (3 in 4) or litecoin with a
// PUE no economics variant uses, so hot entries never collide with the
// miss classes.
func hotRequest(i int) service.Request {
	app := "bitcoin"
	if i%4 == 3 {
		app = "litecoin"
	}
	return service.Request{App: app, TCO: &service.TCOSpec{PUE: fp(1.05 + 0.005*float64(i))}}
}

// distRequest is distributed-catalog entry j of app.
func distRequest(app string, j int) service.Request { return econVariant(app, j) }

// benchRequest is one generated request with its golden key.
type benchRequest struct {
	// Key names the catalog entry, e.g. "econ/17"; Class is "hot",
	// "econ" or "geom".
	Key, Class string
	Req        service.Request
}

func catalogEntry(class string, i int) benchRequest {
	key := fmt.Sprintf("%s/%d", class, i)
	switch class {
	case "hot":
		return benchRequest{key, class, hotRequest(i)}
	case "econ":
		return benchRequest{key, class, econRequest(i)}
	default:
		return benchRequest{key, class, geomRequest(i)}
	}
}

// svcPeriod is the service mix's repeating pattern: per ten requests,
// four hot-set repeats, four economics-only variants and two geometry
// changes. The seed shuffles each period, so the proportions are exact
// for every seed and only the order and the entries vary.
var svcPeriod = [10]string{"hot", "hot", "hot", "hot", "econ", "econ", "econ", "econ", "geom", "geom"}

// serviceMix generates the service workload's request sequence. It is
// safe for concurrent use; clients pull the next request in sequence
// order, so the sequence (not which client sends what) is a function of
// the seed alone.
type serviceMix struct {
	mu     sync.Mutex
	rng    *prng
	hot    []int
	period [10]string
	pos    int
	seq    int
	econ   walk
	geom   walk
}

// walk visits a catalog from a seeded start with a seeded stride
// coprime to the catalog size and to 12: every entry once before any
// repeats, and the residues mod 3 and mod 4 in strict rotation.
type walk struct{ start, stride, n, k int }

func (w *walk) next() int {
	i := (w.start + w.k*w.stride) % w.n
	w.k++
	return i
}

func newWalk(rng *prng, n int) walk {
	stride := 1 + rng.intn(n-1)
	for gcd(stride, n*12) != 1 {
		stride = 1 + rng.intn(n-1)
	}
	return walk{start: rng.intn(n), stride: stride, n: n}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newServiceMix(seed int64) *serviceMix {
	rng := newPRNG(seed)
	// The hot set keeps the catalog's 3:1 bitcoin:litecoin split for
	// every seed: hotSet/4 entries with i%4 == 3, the rest without.
	m := &serviceMix{rng: rng}
	for _, i := range rng.perm(hotCatalog) {
		lite := i%4 == 3
		n := 0
		for _, h := range m.hot {
			if (h%4 == 3) == lite {
				n++
			}
		}
		if (lite && n < hotSet/4) || (!lite && n < hotSet-hotSet/4) {
			m.hot = append(m.hot, i)
		}
	}
	m.econ = newWalk(rng, econCatalog)
	m.geom = newWalk(rng, geomCatalog)
	m.pos = len(m.period)
	return m
}

// next returns the next request of the sequence and its position.
func (m *serviceMix) next() (benchRequest, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pos == len(m.period) {
		for i, k := range m.rng.perm(len(svcPeriod)) {
			m.period[i] = svcPeriod[k]
		}
		m.pos = 0
	}
	class := m.period[m.pos]
	m.pos++
	m.seq++
	switch class {
	case "hot":
		return catalogEntry(class, m.hot[m.rng.intn(len(m.hot))]), m.seq - 1
	case "econ":
		return catalogEntry(class, m.econ.next()), m.seq - 1
	default:
		return catalogEntry(class, m.geom.next()), m.seq - 1
	}
}

// distApps are the apps of one distributed cycle.
var distApps = []string{"bitcoin", "litecoin", "xcode"}

// distCycle returns the next cycle of the distributed workload: one request per
// app, in a seeded order, each a seeded variant. Every cycle has the same
// per-app composition, so throughput does not depend on the seed's mix.
func distCycle(rng *prng) []benchRequest {
	out := make([]benchRequest, 0, len(distApps))
	for _, k := range rng.perm(len(distApps)) {
		app := distApps[k]
		j := rng.intn(distVariants)
		out = append(out, benchRequest{Key: fmt.Sprintf("dist/%s/%d", app, j), Class: app, Req: distRequest(app, j)})
	}
	return out
}
