package mmog

import (
	"math"
	"math/rand"
	"testing"

	"atlarge/internal/sim"
)

// The array-of-structs world below is the pre-SoA implementation, frozen as
// the parity reference: world generation, the pair load, and the three
// partitioners' allocating Loads, verbatim but for the ref prefix. The SoA
// code must reproduce it bit for bit.

// refEntity is a player avatar or game unit at a 2D position.
type refEntity struct {
	ID         int
	X          float64
	Y          float64
	Actionable bool
}

// refWorld is the array-of-structs world.
type refWorld struct {
	Size     float64
	Entities []refEntity
	POIs     [][2]float64
}

// refGenerateWorld builds a world with clustered entities.
func refGenerateWorld(cfg WorldConfig) *refWorld {
	r := rand.New(rand.NewSource(cfg.Seed))
	w := &refWorld{Size: cfg.Size}
	for p := 0; p < cfg.POIs; p++ {
		w.POIs = append(w.POIs, [2]float64{r.Float64() * cfg.Size, r.Float64() * cfg.Size})
	}
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= cfg.Size {
			return cfg.Size - 1e-9
		}
		return v
	}
	for i := 0; i < cfg.Entities; i++ {
		var poi [2]float64
		if r.Float64() < cfg.HotFraction {
			poi = w.POIs[0]
		} else {
			poi = w.POIs[r.Intn(len(w.POIs))]
		}
		w.Entities = append(w.Entities, refEntity{
			ID:         i + 1,
			X:          clamp(poi[0] + r.NormFloat64()*cfg.Spread),
			Y:          clamp(poi[1] + r.NormFloat64()*cfg.Spread),
			Actionable: r.Float64() < 0.6,
		})
	}
	return w
}

// refPairLoad computes the interaction load of a set of entities: the number of
// actionable pairs within the interaction radius. This is the quadratic term
// that limits MMOG scalability.
func refPairLoad(entities []refEntity) float64 {
	load := 0.0
	for i := 0; i < len(entities); i++ {
		if !entities[i].Actionable {
			continue
		}
		for j := i + 1; j < len(entities); j++ {
			if !entities[j].Actionable {
				continue
			}
			dx := entities[i].X - entities[j].X
			dy := entities[i].Y - entities[j].Y
			if dx*dx+dy*dy <= InteractionRadius*InteractionRadius {
				load++
			}
		}
	}
	// Linear baseline cost per entity (movement, state updates).
	return load + float64(len(entities))*0.1
}

// refZoneLoads is ZonePartitioner.Loads on the AoS world.
func refZoneLoads(w *refWorld, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Grid side: ceil(sqrt(servers)) zones per axis.
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	cell := w.Size / float64(side)
	zones := make([][]refEntity, side*side)
	for _, e := range w.Entities {
		zx := int(e.X / cell)
		zy := int(e.Y / cell)
		if zx >= side {
			zx = side - 1
		}
		if zy >= side {
			zy = side - 1
		}
		idx := zy*side + zx
		zones[idx] = append(zones[idx], e)
	}
	loads := make([]float64, servers)
	for i, z := range zones {
		loads[i%servers] += refPairLoad(z)
	}
	return loads
}

// refAoSLoads is AoSPartitioner.Loads on the AoS world.
func refAoSLoads(w *refWorld, servers int) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Assign each entity to its nearest POI; each POI area may further be
	// split into sub-areas when overloaded (the AoS mechanism caps area
	// population by interest, not geography).
	areas := make([][]refEntity, len(w.POIs))
	for _, e := range w.Entities {
		best, bestD := 0, math.Inf(1)
		for p, poi := range w.POIs {
			dx, dy := e.X-poi[0], e.Y-poi[1]
			if d := dx*dx + dy*dy; d < bestD {
				bestD = d
				best = p
			}
		}
		areas[best] = append(areas[best], e)
	}
	// Split any area larger than cap into chunks: inside one area entities
	// are interchangeable (same interest), so AoS can shard them and only
	// pay a small cross-shard synchronization overhead.
	const cap = 80
	var shards [][]refEntity
	for _, a := range areas {
		for len(a) > cap {
			shards = append(shards, a[:cap])
			a = a[cap:]
		}
		if len(a) > 0 {
			shards = append(shards, a)
		}
	}
	// LPT assignment of shard loads to servers.
	loads := make([]float64, servers)
	shardLoads := make([]float64, len(shards))
	for i, sh := range shards {
		// Cross-shard sync overhead: 5% per shard beyond the first of an area.
		shardLoads[i] = refPairLoad(sh) * 1.05
	}
	// Sort descending by load (simple selection for small n).
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		maxJ := i
		for j := i + 1; j < len(order); j++ {
			if shardLoads[order[j]] > shardLoads[order[maxJ]] {
				maxJ = j
			}
		}
		order[i], order[maxJ] = order[maxJ], order[i]
	}
	for _, idx := range order {
		minS := 0
		for s := 1; s < servers; s++ {
			if loads[s] < loads[minS] {
				minS = s
			}
		}
		loads[minS] += shardLoads[idx]
	}
	return loads
}

// refMirrorLoads is MirrorPartitioner.Loads on the AoS world.
func refMirrorLoads(m MirrorPartitioner, w *refWorld, servers int) []float64 {
	frac := m.OffloadFraction
	if frac < 0 {
		frac = 0
	}
	if frac > 0.9 {
		frac = 0.9
	}
	loads := refAoSLoads(w, servers)
	for i := range loads {
		loads[i] *= 1 - frac
	}
	return loads
}

// refLoads dispatches a built-in partitioner to its reference Loads.
func refLoads(p Partitioner, w *refWorld, servers int) []float64 {
	switch p := p.(type) {
	case ZonePartitioner:
		return refZoneLoads(w, servers)
	case AoSPartitioner:
		return refAoSLoads(w, servers)
	case MirrorPartitioner:
		return refMirrorLoads(p, w, servers)
	}
	panic("no reference Loads for " + p.Name())
}

// refNearestPOI returns the closest point of interest to (x, y).
func refNearestPOI(w *refWorld, x, y float64) (float64, float64) {
	bx, by, bestD := 0.0, 0.0, math.Inf(1)
	for _, poi := range w.POIs {
		dx, dy := x-poi[0], y-poi[1]
		if d := dx*dx + dy*dy; d < bestD {
			bestD = d
			bx, by = poi[0], poi[1]
		}
	}
	return bx, by
}

// runWorldSimRef is the pre-SoA RunWorldSim, kept verbatim as the parity
// reference: array-of-structs world, per-tick allocating Loads, chained
// self-rescheduling tick events. The SoA rewrite must reproduce its results
// bit-for-bit.
func runWorldSimRef(cfg WorldSimConfig) (*WorldSimResult, error) {
	if cfg.Partitioner == nil {
		cfg.Partitioner = AoSPartitioner{}
	}
	tickSec := cfg.TickSeconds
	if tickSec <= 0 {
		tickSec = 1
	}
	wander := cfg.Wander
	if wander <= 0 {
		wander = 2
	}
	cfg.World.Seed = cfg.Seed
	w := refGenerateWorld(cfg.World)
	res := &WorldSimResult{Entities: len(w.Entities), Servers: cfg.Servers}

	k := sim.NewKernel(cfg.Seed)
	var rec sim.Recorder
	move := k.Rand("mmog/move")
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v >= w.Size {
			return w.Size - 1e-9
		}
		return v
	}
	var tick sim.Handler
	ticked := 0
	tick = func(k *sim.Kernel) {
		for i := range w.Entities {
			e := &w.Entities[i]
			px, py := refNearestPOI(w, e.X, e.Y)
			e.X = clamp(e.X + move.NormFloat64()*wander + 0.02*(px-e.X))
			e.Y = clamp(e.Y + move.NormFloat64()*wander + 0.02*(py-e.Y))
		}
		loads := refLoads(cfg.Partitioner, w, cfg.Servers)
		maxL, sum := 0.0, 0.0
		for _, l := range loads {
			sum += l
			if l > maxL {
				maxL = l
			}
		}
		mean := sum / float64(len(loads))
		now := k.Now()
		rec.Record("max_load", now, maxL)
		rec.Record("mean_load", now, mean)
		if mean > 0 {
			rec.Record("imbalance", now, maxL/mean)
		} else {
			rec.Record("imbalance", now, 1)
		}
		ticked++
		if ticked < cfg.Ticks {
			k.After(sim.Duration(tickSec), "world-tick", tick)
		}
	}
	k.At(0, "world-tick", tick)
	if err := k.Run(); err != nil {
		return nil, err
	}
	res.Ticks = ticked
	res.PeakLoad = maxOf(rec.Values("max_load"))
	res.MeanMaxLoad = meanOf(rec.Values("max_load"))
	res.MeanLoad = meanOf(rec.Values("mean_load"))
	res.Imbalance = meanOf(rec.Values("imbalance"))
	return res, nil
}

// TestGenerateWorldSoAMatchesGenerateWorld pins the SoA generator to the AoS
// reference: identical RNG draw order means entity i is bit-identical.
func TestGenerateWorldSoAMatchesGenerateWorld(t *testing.T) {
	for _, seed := range []int64{1, 7, 12345} {
		cfg := DefaultWorldConfig(700)
		cfg.Seed = seed
		aos := refGenerateWorld(cfg)
		soa := GenerateWorldSoA(cfg)
		if soa.Len() != len(aos.Entities) {
			t.Fatalf("seed %d: entity count %d != %d", seed, soa.Len(), len(aos.Entities))
		}
		if len(soa.POIs) != len(aos.POIs) {
			t.Fatalf("seed %d: POI count mismatch", seed)
		}
		for p := range soa.POIs {
			if soa.POIs[p] != aos.POIs[p] {
				t.Fatalf("seed %d: POI %d: %v != %v", seed, p, soa.POIs[p], aos.POIs[p])
			}
		}
		for i, e := range aos.Entities {
			if soa.X[i] != e.X || soa.Y[i] != e.Y || soa.Actionable[i] != e.Actionable {
				t.Fatalf("seed %d: entity %d: (%v,%v,%v) != (%v,%v,%v)",
					seed, i, soa.X[i], soa.Y[i], soa.Actionable[i], e.X, e.Y, e.Actionable)
			}
		}
	}
}

// TestLoadsSoAMatchesLoads pins every built-in partitioner's Loads to its
// allocating AoS reference, bit for bit, including scratch reuse across calls.
func TestLoadsSoAMatchesLoads(t *testing.T) {
	parts := []Partitioner{
		ZonePartitioner{},
		AoSPartitioner{},
		MirrorPartitioner{OffloadFraction: 0.5},
		MirrorPartitioner{OffloadFraction: -1}, // clamps to 0
		MirrorPartitioner{OffloadFraction: 2},  // clamps to 0.9
	}
	var scratch PartitionScratch // shared across all cases: reuse must not leak state
	for _, seed := range []int64{1, 9, 424242} {
		for _, entities := range []int{0, 1, 50, 900} {
			cfg := DefaultWorldConfig(entities)
			cfg.Seed = seed
			aos := refGenerateWorld(cfg)
			soa := GenerateWorldSoA(cfg)
			for _, p := range parts {
				for _, servers := range []int{1, 3, 8, 16} {
					want := refLoads(p, aos, servers)
					got := p.Loads(soa, servers, &scratch)
					if len(got) != len(want) {
						t.Fatalf("%s servers=%d: len %d != %d", p.Name(), servers, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s seed=%d n=%d servers=%d: load[%d] %v != %v",
								p.Name(), seed, entities, servers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestWorldSimMatchesReference pins the SoA WorldSim to the pre-rewrite
// implementation: exact result equality across partitioners, seeds, and a
// fractional tick spacing.
func TestWorldSimMatchesReference(t *testing.T) {
	cases := []WorldSimConfig{
		DefaultWorldSimConfig(300, 8),
		DefaultWorldSimConfig(200, 4),
		{
			World:       DefaultWorldConfig(250),
			Partitioner: ZonePartitioner{},
			Servers:     9,
			Ticks:       25,
			TickSeconds: 0.25,
			Wander:      3,
			Seed:        77,
		},
		{
			World:       DefaultWorldConfig(150),
			Partitioner: MirrorPartitioner{OffloadFraction: 0.4},
			Servers:     5,
			Ticks:       40,
			TickSeconds: 1.5,
			Seed:        1234,
		},
	}
	cases[1].Seed = 99
	for i, cfg := range cases {
		want, err := runWorldSimRef(cfg)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		got, err := RunWorldSim(cfg)
		if err != nil {
			t.Fatalf("case %d: soa: %v", i, err)
		}
		if *got != *want {
			t.Fatalf("case %d: result diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
