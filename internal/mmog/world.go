// Package mmog simulates Massive Multiplayer Online Game ecosystems and the
// studies of the paper's Table 6: virtual-world scalability (static zoning
// versus the Area-of-Simulation technique, and Mirror-style computation
// offloading), player-population dynamics (MMORPG diurnal cycles, MOBA
// match-based play), implicit social networks mined from co-play, toxicity
// detection, and dynamic resource provisioning for game servers.
package mmog

import (
	"fmt"
	"math"
	"math/rand"
)

// WorldSoA is a square virtual world of side Size with entities clustered
// around points of interest — the workload shape the RTSenv study found:
// multiple points of interest, tens of entities under careful management in
// some, hundreds under casual management in others. Entity fields live in
// parallel slices (struct of arrays), so the per-tick hot loops (wander,
// binning, pair interaction) stream through dense float64 arrays. Actionable
// entities (units in combat) generate interaction load.
type WorldSoA struct {
	Size       float64
	X, Y       []float64
	Actionable []bool
	POIs       [][2]float64
}

// Len returns the entity count.
func (w *WorldSoA) Len() int { return len(w.X) }

// WorldConfig parameterizes world generation.
type WorldConfig struct {
	Size float64
	// POIs is the number of points of interest (RTS battles, towns).
	POIs int
	// Entities is the total entity count.
	Entities int
	// Spread is the Gaussian scatter of entities around their POI.
	Spread float64
	// HotFraction is the fraction of entities concentrated in the single
	// hottest POI (battle clustering).
	HotFraction float64
	Seed        int64
}

// DefaultWorldConfig is a 1000x1000 world with 5 POIs.
func DefaultWorldConfig(entities int) WorldConfig {
	return WorldConfig{Size: 1000, POIs: 5, Entities: entities, Spread: 30, HotFraction: 0.4, Seed: 1}
}

// GenerateWorldSoA builds a world with clustered entities.
func GenerateWorldSoA(cfg WorldConfig) *WorldSoA {
	r := rand.New(rand.NewSource(cfg.Seed))
	w := &WorldSoA{
		Size:       cfg.Size,
		X:          make([]float64, 0, cfg.Entities),
		Y:          make([]float64, 0, cfg.Entities),
		Actionable: make([]bool, 0, cfg.Entities),
	}
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
		w.X = append(w.X, clamp(poi[0]+r.NormFloat64()*cfg.Spread))
		w.Y = append(w.Y, clamp(poi[1]+r.NormFloat64()*cfg.Spread))
		w.Actionable = append(w.Actionable, r.Float64() < 0.6)
	}
	return w
}

// nearestPOI returns the index of the point of interest closest to (x, y);
// ties go to the lower index.
func (w *WorldSoA) nearestPOI(x, y float64) int {
	best, bestD := 0, math.Inf(1)
	for p, poi := range w.POIs {
		dx, dy := x-poi[0], y-poi[1]
		if d := dx*dx + dy*dy; d < bestD {
			bestD = d
			best = p
		}
	}
	return best
}

// InteractionRadius is the distance within which two actionable entities
// interact (and thus cost simulation work).
const InteractionRadius = 50.0

// pairLoadIdx computes the interaction load of a group of entities, given as
// indices into w: the number of actionable pairs within the interaction
// radius — the quadratic term that limits MMOG scalability — plus a linear
// baseline cost per entity (movement, state updates).
func pairLoadIdx(w *WorldSoA, idxs []int32) float64 {
	load := 0.0
	for a := 0; a < len(idxs); a++ {
		i := idxs[a]
		if !w.Actionable[i] {
			continue
		}
		xi, yi := w.X[i], w.Y[i]
		for b := a + 1; b < len(idxs); b++ {
			j := idxs[b]
			if !w.Actionable[j] {
				continue
			}
			dx := xi - w.X[j]
			dy := yi - w.Y[j]
			if dx*dx+dy*dy <= InteractionRadius*InteractionRadius {
				load++
			}
		}
	}
	return load + float64(len(idxs))*0.1
}

// Partitioner splits a world across servers and reports per-server load.
type Partitioner interface {
	// Name identifies the technique.
	Name() string
	// Loads returns the per-server interaction load for the world when split
	// over servers servers. The returned slice is owned by s and valid until
	// the next Loads call with the same scratch.
	Loads(w *WorldSoA, servers int, s *PartitionScratch) []float64
}

// PartitionScratch holds the reusable buffers of Partitioner.Loads. A zero
// PartitionScratch is ready to use; buffers grow to the high-water mark of
// entities/bins/shards and are then reused, so a steady-state tick
// allocates nothing.
type PartitionScratch struct {
	bin        []int32 // per-entity bin id
	counts     []int32 // per-bin entity count
	cursor     []int32 // per-bin write cursor (ends after the scatter)
	order      []int32 // entity indices grouped by bin, stable within a bin
	shardStart []int32 // per-shard [start, end) ranges into order
	shardEnd   []int32
	shardLoads []float64
	shardOrder []int
	loads      []float64
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// groupByBin counting-sorts entity indices by s.bin into s.order: bins are
// contiguous and entities keep ascending index order within a bin. nb is the
// bin count; s.bin and s.counts must already be filled.
func (s *PartitionScratch) groupByBin(n, nb int) {
	s.cursor = growInt32(s.cursor, nb)
	start := int32(0)
	for b := 0; b < nb; b++ {
		s.cursor[b] = start
		start += s.counts[b]
	}
	s.order = growInt32(s.order, n)
	for i := 0; i < n; i++ {
		b := s.bin[i]
		s.order[s.cursor[b]] = int32(i)
		s.cursor[b]++
	}
	// s.cursor[b] is now the end offset of bin b; its start is end-counts[b].
}

// ZonePartitioner is classic static spatial zoning: the world is cut into a
// grid of equal zones, each zone pinned to a server (round-robin when zones
// exceed servers).
type ZonePartitioner struct{}

// Name implements Partitioner.
func (ZonePartitioner) Name() string { return "zones" }

// Loads implements Partitioner.
func (ZonePartitioner) Loads(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
	if servers < 1 {
		servers = 1
	}
	// Grid side: ceil(sqrt(servers)) zones per axis.
	side := int(math.Ceil(math.Sqrt(float64(servers))))
	cell := w.Size / float64(side)
	nb := side * side
	n := w.Len()
	s.bin = growInt32(s.bin, n)
	s.counts = growInt32(s.counts, nb)
	for b := range s.counts {
		s.counts[b] = 0
	}
	for i := 0; i < n; i++ {
		zx := int(w.X[i] / cell)
		zy := int(w.Y[i] / cell)
		if zx >= side {
			zx = side - 1
		}
		if zy >= side {
			zy = side - 1
		}
		b := int32(zy*side + zx)
		s.bin[i] = b
		s.counts[b]++
	}
	s.groupByBin(n, nb)
	s.loads = growF64(s.loads, servers)
	for i := range s.loads {
		s.loads[i] = 0
	}
	for b := 0; b < nb; b++ {
		end := s.cursor[b]
		s.loads[b%servers] += pairLoadIdx(w, s.order[end-s.counts[b]:end])
	}
	return s.loads
}

// AoSPartitioner is the Area-of-Simulation technique: simulation areas form
// around points of interest and are assigned to servers by load (longest
// processing time first), decoupling load placement from static geography.
type AoSPartitioner struct{}

// Name implements Partitioner.
func (AoSPartitioner) Name() string { return "area-of-simulation" }

// aosShardCap is the AoS area population cap: inside one area entities are
// interchangeable (same interest), so larger areas shard into chunks of this
// size and only pay a small cross-shard synchronization overhead.
const aosShardCap = 80

// Loads implements Partitioner: each entity joins the area of its nearest
// POI, areas shard at aosShardCap, and shards are assigned to servers
// longest first.
func (AoSPartitioner) Loads(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
	if servers < 1 {
		servers = 1
	}
	n := w.Len()
	nb := len(w.POIs)
	s.bin = growInt32(s.bin, n)
	s.counts = growInt32(s.counts, nb)
	for b := range s.counts {
		s.counts[b] = 0
	}
	for i := 0; i < n; i++ {
		best := w.nearestPOI(w.X[i], w.Y[i])
		s.bin[i] = int32(best)
		s.counts[best]++
	}
	s.groupByBin(n, nb)
	// Chunk each area into shards of at most aosShardCap entities, in area
	// order.
	s.shardStart = s.shardStart[:0]
	s.shardEnd = s.shardEnd[:0]
	for b := 0; b < nb; b++ {
		end := s.cursor[b]
		a := end - s.counts[b]
		for end-a > aosShardCap {
			s.shardStart = append(s.shardStart, a)
			s.shardEnd = append(s.shardEnd, a+aosShardCap)
			a += aosShardCap
		}
		if end-a > 0 {
			s.shardStart = append(s.shardStart, a)
			s.shardEnd = append(s.shardEnd, end)
		}
	}
	ns := len(s.shardStart)
	s.shardLoads = growF64(s.shardLoads, ns)
	for i := 0; i < ns; i++ {
		// Cross-shard sync overhead: 5% per shard.
		s.shardLoads[i] = pairLoadIdx(w, s.order[s.shardStart[i]:s.shardEnd[i]]) * 1.05
	}
	// Descending selection sort of shard indices (small n). Its swaps are
	// unstable; outputs are pinned to this exact order of equal-load shards.
	s.shardOrder = growInts(s.shardOrder, ns)
	for i := range s.shardOrder {
		s.shardOrder[i] = i
	}
	for i := 0; i < ns; i++ {
		maxJ := i
		for j := i + 1; j < ns; j++ {
			if s.shardLoads[s.shardOrder[j]] > s.shardLoads[s.shardOrder[maxJ]] {
				maxJ = j
			}
		}
		s.shardOrder[i], s.shardOrder[maxJ] = s.shardOrder[maxJ], s.shardOrder[i]
	}
	s.loads = growF64(s.loads, servers)
	for i := range s.loads {
		s.loads[i] = 0
	}
	// LPT assignment of shard loads to servers.
	for _, idx := range s.shardOrder {
		minS := 0
		for srv := 1; srv < servers; srv++ {
			if s.loads[srv] < s.loads[minS] {
				minS = srv
			}
		}
		s.loads[minS] += s.shardLoads[idx]
	}
	return s.loads
}

// MirrorPartitioner is AoS plus Mirror-style computation offloading: a cloud
// mirror absorbs OffloadFraction of each server's interaction load at the
// price of added latency (modeled outside the load metric).
type MirrorPartitioner struct {
	OffloadFraction float64
}

// Name implements Partitioner.
func (m MirrorPartitioner) Name() string { return "mirror" }

// Loads implements Partitioner: the AoS loads scaled by the retained
// fraction.
func (m MirrorPartitioner) Loads(w *WorldSoA, servers int, s *PartitionScratch) []float64 {
	frac := m.OffloadFraction
	if frac < 0 {
		frac = 0
	}
	if frac > 0.9 {
		frac = 0.9
	}
	loads := AoSPartitioner{}.Loads(w, servers, s)
	for i := range loads {
		loads[i] *= 1 - frac
	}
	return loads
}

// MaxSupportedPlayers finds the largest entity count (by doubling then
// bisecting) for which the maximum per-server load stays within budget.
func MaxSupportedPlayers(p Partitioner, servers int, budget float64, seed int64) int {
	var scratch PartitionScratch
	ok := func(n int) bool {
		cfg := DefaultWorldConfig(n)
		cfg.Seed = seed
		loads := p.Loads(GenerateWorldSoA(cfg), servers, &scratch)
		maxL := 0.0
		for _, l := range loads {
			if l > maxL {
				maxL = l
			}
		}
		return maxL <= budget
	}
	lo, hi := 0, 64
	for ok(hi) && hi < 1<<20 {
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ScalabilityRow is one line of the AoS scalability experiment.
type ScalabilityRow struct {
	Technique  string
	Servers    int
	MaxPlayers int
}

// RunScalabilityStudy compares zoning, AoS, and Mirror at several server
// counts under a fixed per-server load budget.
func RunScalabilityStudy(serverCounts []int, budget float64, seed int64) []ScalabilityRow {
	var rows []ScalabilityRow
	parts := []Partitioner{ZonePartitioner{}, AoSPartitioner{}, MirrorPartitioner{OffloadFraction: 0.5}}
	for _, servers := range serverCounts {
		for _, p := range parts {
			rows = append(rows, ScalabilityRow{
				Technique:  p.Name(),
				Servers:    servers,
				MaxPlayers: MaxSupportedPlayers(p, servers, budget, seed),
			})
		}
	}
	return rows
}

// String renders a row.
func (r ScalabilityRow) String() string {
	return fmt.Sprintf("%-20s servers=%-3d max players=%d", r.Technique, r.Servers, r.MaxPlayers)
}
