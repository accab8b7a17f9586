package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"atlarge/internal/sim"
)

// ClassShare weights one workload class in a Population's client mix.
type ClassShare struct {
	Class  Class
	Weight float64
}

// Skew describes how per-client rate multipliers are drawn across a
// Population, producing the heavy-tailed per-client activity observed in
// production serving traces.
type Skew struct {
	// Kind is "none" (or empty), "zipf", or "lognormal".
	Kind string
	// S is the Zipf exponent (default 1.1): client c's rate weight is
	// proportional to (c+1)^-S, normalized to unit mean over the population.
	S float64
	// Sigma is the lognormal σ (default 1): multipliers are exp(σZ − σ²/2),
	// unit mean.
	Sigma float64
}

// ParseSkew resolves a skew by name, case-insensitively, with default
// parameters.
func ParseSkew(name string) (Skew, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return Skew{Kind: "none"}, nil
	case "zipf":
		return Skew{Kind: "zipf"}, nil
	case "lognormal":
		return Skew{Kind: "lognormal"}, nil
	}
	return Skew{}, fmt.Errorf("workload: unknown skew %q (known: %s)", name, strings.Join(SkewNames(), ", "))
}

// SkewNames returns the accepted skew names in sorted order.
func SkewNames() []string {
	out := []string{"lognormal", "none", "zipf"}
	sort.Strings(out)
	return out
}

// normalizeSkew lower-cases the kind and fills parameter defaults.
func normalizeSkew(s Skew) Skew {
	s.Kind = strings.ToLower(s.Kind)
	if s.Kind == "" {
		s.Kind = "none"
	}
	if s.S == 0 {
		s.S = 1.1
	}
	if s.Sigma == 0 {
		s.Sigma = 1
	}
	return s
}

// Population declares N heterogeneous clients whose merged submissions form
// one workload: each client draws a class from Mix, a rate multiplier from
// Skew, and then submits jobs forever through its class's arrival process.
// Source streams the merged, globally time-ordered result with O(Clients)
// resident state — about 48 bytes per client — so a spec can declare 10^6
// clients without materializing anything per job.
//
// Determinism: client c's RNG stream depends only on (Seed, c), and merge
// ties are broken by client ID, so the emitted stream is a pure function of
// the Population value.
type Population struct {
	// Clients is the number of independent clients (≥ 1).
	Clients int
	// Mix weights the workload classes that clients are assigned to; one
	// class draw per client. It must be non-empty — use SingleClass for the
	// common homogeneous case.
	Mix []ClassShare
	// Arrival, when non-nil, overrides the arrival process of every class
	// generator in the mix.
	Arrival ArrivalProcess
	// Skew draws the per-client rate multipliers.
	Skew Skew
	// RateScale scales every client's arrival rate. 0 defaults to
	// 1/Clients, so the population's aggregate rate matches the class
	// generator's calibrated rate regardless of the client count.
	RateScale float64
	// Seed is the base seed; client c streams from DeriveSeed(Seed, c).
	Seed int64
}

// SingleClass is the homogeneous mix: every client runs class c.
func SingleClass(c Class) []ClassShare { return []ClassShare{{Class: c, Weight: 1}} }

// DeriveSeed derives a per-client RNG seed from the population base seed by
// avalanching the (base, client) pair through the splitmix64 finalizer —
// the same discipline the runner uses for experiment seeds. A client's
// stream depends only on its ID, never on the other clients.
func DeriveSeed(base int64, client int) int64 {
	h := uint64(base) + (uint64(client)+1)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

func validClass(c Class) bool { return c >= ClassSynthetic && c <= ClassIndustrial }

// Validate checks the population spec without building it.
func (p *Population) Validate() error {
	if p.Clients < 1 {
		return fmt.Errorf("workload: population needs clients >= 1, got %d", p.Clients)
	}
	if len(p.Mix) == 0 {
		return fmt.Errorf("workload: population needs a non-empty class mix")
	}
	for _, m := range p.Mix {
		if !validClass(m.Class) {
			return fmt.Errorf("workload: population mix has unknown class %v", m.Class)
		}
		if !positive(m.Weight) {
			return fmt.Errorf("workload: population mix weight for %s must be > 0, got %v", m.Class, m.Weight)
		}
	}
	if p.Arrival != nil {
		if err := p.Arrival.Validate(); err != nil {
			return err
		}
	}
	sk := normalizeSkew(p.Skew)
	if _, err := ParseSkew(sk.Kind); err != nil {
		return err
	}
	if !positive(sk.S) || !positive(sk.Sigma) {
		return fmt.Errorf("workload: population skew parameters must be > 0, got s=%v sigma=%v", sk.S, sk.Sigma)
	}
	if p.RateScale < 0 || math.IsNaN(p.RateScale) {
		return fmt.Errorf("workload: population rate scale must be >= 0, got %v", p.RateScale)
	}
	return nil
}

// Source builds the population's job stream. The stream is unbounded;
// consumers take what they need (Collect with a max, or a streaming
// simulator) and must Close it when done.
func (p *Population) Source() (JobSource, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gens := make([]Generator, len(p.Mix))
	cum := make([]float64, len(p.Mix))
	total := 0.0
	for i, m := range p.Mix {
		gens[i] = StandardGenerator(m.Class)
		if p.Arrival != nil {
			gens[i].Arrivals = p.Arrival
		}
		if err := gens[i].Arrivals.Validate(); err != nil {
			return nil, err
		}
		total += m.Weight
		cum[i] = total
	}
	rateScale := p.RateScale
	if rateScale == 0 {
		rateScale = 1 / float64(p.Clients)
	}
	sk := normalizeSkew(p.Skew)
	var zipfNorm float64
	if sk.Kind == "zipf" {
		// Unit-mean normalizer for the deterministic Zipf weights; O(N) once.
		sum := 0.0
		for i := 0; i < p.Clients; i++ {
			sum += math.Pow(float64(i+1), -sk.S)
		}
		zipfNorm = sum / float64(p.Clients)
	}
	cfg := popConfig{gens: gens, cum: cum, skew: sk, zipfNorm: zipfNorm, rateScale: rateScale, seed: p.Seed}
	return newPopulationSource(cfg, p.Clients, p.name()), nil
}

func (p *Population) name() string {
	classes := make([]string, len(p.Mix))
	for i, m := range p.Mix {
		classes[i] = m.Class.String()
	}
	return fmt.Sprintf("population(%d×%s, skew=%s)", p.Clients, strings.Join(classes, "+"), normalizeSkew(p.Skew).Kind)
}

// popConfig is the resolved population configuration.
type popConfig struct {
	gens      []Generator
	cum       []float64 // cumulative mix weights
	skew      Skew
	zipfNorm  float64
	rateScale float64
	seed      int64
}

// client is one population member's entire resident state: an 8-byte
// splitmix64 RNG, the next (already drawn) submit time, the rate multiplier,
// and the class index.
type client struct {
	rng   uint64
	next  sim.Time
	mult  float64
	class uint16
}

// clientSource is a splitmix64 rand.Source64 whose state word lives in the
// client table. One shared *rand.Rand per source is redirected from
// client to client, so a million clients cost 8 MB of RNG state rather than
// a million rand.Rand instances.
type clientSource struct{ state *uint64 }

func (s *clientSource) Uint64() uint64 {
	*s.state += 0x9e3779b97f4a7c15
	z := *s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *clientSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *clientSource) Seed(int64) {}

// mergeNode is the 16-byte value node of the k-way merge heap, mirroring
// the sim kernel's heap discipline: compare by packed time bits, break ties
// by client ID so the merge order is independent of heap insertion history.
type mergeNode struct {
	at     uint64
	client uint32
}

// packTime maps a non-negative time to a uint64 whose natural order matches
// numeric order (IEEE-754 bit patterns are monotone for non-negative
// floats).
func packTime(t sim.Time) uint64 { return math.Float64bits(float64(t)) }

func nodeLess(a, b mergeNode) bool {
	return a.at < b.at || (a.at == b.at && a.client < b.client)
}

const mergeArity = 4

func siftDown(h []mergeNode, i int) {
	n := h[i]
	for {
		first := i*mergeArity + 1
		if first >= len(h) {
			break
		}
		last := first + mergeArity
		if last > len(h) {
			last = len(h)
		}
		best := first
		for c := first + 1; c < last; c++ {
			if nodeLess(h[c], h[best]) {
				best = c
			}
		}
		if !nodeLess(h[best], n) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = n
}

// heapify establishes the heap property bottom-up (Floyd), O(n).
func heapify(h []mergeNode) {
	for i := (len(h) - 2) / mergeArity; i >= 0; i-- {
		siftDown(h, i)
	}
}

// populationSource merges the clients into one (submit, client)-ordered job
// stream: a heap of one cursor per client, job bodies drawn at pop time into
// a reused scratch job.
type populationSource struct {
	cfg     popConfig
	clients []client
	heap    []mergeNode
	src     clientSource
	r       *rand.Rand
	sc      genScratch
	job     Job
	name    string
	seq     int
	taskID  int
}

func newPopulationSource(cfg popConfig, clients int, name string) *populationSource {
	s := &populationSource{
		cfg:     cfg,
		clients: make([]client, clients),
		heap:    make([]mergeNode, clients),
		name:    name,
	}
	s.r = rand.New(&s.src)
	for id := range s.clients {
		c := &s.clients[id]
		c.rng = uint64(DeriveSeed(cfg.seed, id))
		s.src.state = &c.rng
		// Per-client draw order is a fixed contract: class pick (only for
		// mixed populations), skew draw (only lognormal), first arrival gap.
		ci := 0
		if len(cfg.gens) > 1 {
			u := s.r.Float64() * cfg.cum[len(cfg.cum)-1]
			for ci < len(cfg.cum)-1 && u > cfg.cum[ci] {
				ci++
			}
		}
		c.class = uint16(ci)
		mult := cfg.rateScale
		switch cfg.skew.Kind {
		case "zipf":
			mult *= math.Pow(float64(id+1), -cfg.skew.S) / cfg.zipfNorm
		case "lognormal":
			z := s.r.NormFloat64()
			mult *= math.Exp(cfg.skew.Sigma*z - cfg.skew.Sigma*cfg.skew.Sigma/2)
		}
		c.mult = mult
		c.next = cfg.gens[ci].Arrivals.NextAfter(0, mult, s.r)
		s.heap[id] = mergeNode{at: packTime(c.next), client: uint32(id)}
	}
	heapify(s.heap)
	return s
}

// pop takes the earliest client cursor, fills that client's next job into
// the scratch job (IDs are assigned by Next), advances the cursor, and
// restores the heap. The stream is unbounded, so pop always succeeds.
func (s *populationSource) pop() (*Job, uint32) {
	node := s.heap[0]
	c := &s.clients[node.client]
	s.src.state = &c.rng
	g := &s.cfg.gens[c.class]
	s.job.Submit = c.next
	s.job.Class = g.Class
	g.fillJob(&s.job, s.r, &s.sc)
	c.next = g.Arrivals.NextAfter(c.next, c.mult, s.r)
	s.heap[0] = mergeNode{at: packTime(c.next), client: node.client}
	siftDown(s.heap, 0)
	return &s.job, node.client
}

func (s *populationSource) Next() *Job {
	j, _ := s.pop()
	s.seq++
	emitAs(j, s.seq, s.taskID)
	s.taskID += len(j.Tasks)
	return j
}

func (s *populationSource) Name() string { return s.name }

func (s *populationSource) Close() {}
