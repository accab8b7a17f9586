package p2p

import (
	"fmt"
	"math/rand"
	"sort"
)

// SwarmInfo is a tracker's view of one swarm at scrape time.
type SwarmInfo struct {
	SwarmID   int
	ContentID int // aliased media: several swarms can carry the same content
	Format    string
	Seeds     int
	Leechers  int
}

// Tracker serves scrape data for the swarms it coordinates. Spam trackers
// (inserted by unidentified entities, per the 2010 BTWorld study) report
// fabricated swarms with inflated populations.
type Tracker struct {
	ID     int
	Spam   bool
	Swarms []SwarmInfo
}

// Ecosystem is the ground-truth global BitTorrent ecosystem: many trackers,
// many swarms, content aliased across formats.
type Ecosystem struct {
	Trackers []Tracker
	// TruePeers is the ground-truth number of distinct real peers.
	TruePeers int
	// TrueContents is the number of distinct content items.
	TrueContents int
}

// EcosystemConfig parameterizes ecosystem generation.
type EcosystemConfig struct {
	Trackers     int
	SpamFraction float64
	// SwarmsPerTracker is the mean number of swarms per tracker.
	SwarmsPerTracker int
	// Contents is the number of distinct content items; swarm popularity is
	// Zipf over contents.
	Contents int
	// AliasFormats lists the formats content may be released in; each
	// content item appears in 1..len(AliasFormats) swarms.
	AliasFormats []string
	// MeanSwarmSize scales swarm populations.
	MeanSwarmSize int
	Seed          int64
}

// DefaultEcosystemConfig mirrors the scale ratios of the BTWorld study
// (hundreds of trackers, many swarms, giant-swarm skew), shrunk to test
// scale.
func DefaultEcosystemConfig() EcosystemConfig {
	return EcosystemConfig{
		Trackers:         120,
		SpamFraction:     0.08,
		SwarmsPerTracker: 40,
		Contents:         800,
		AliasFormats:     []string{"avi", "mkv", "x264", "dvdrip"},
		MeanSwarmSize:    120,
		Seed:             1,
	}
}

// GenerateEcosystem builds a synthetic global ecosystem.
func GenerateEcosystem(cfg EcosystemConfig) *Ecosystem {
	r := rand.New(rand.NewSource(cfg.Seed))
	eco := &Ecosystem{TrueContents: cfg.Contents}
	swarmID := 0
	for t := 0; t < cfg.Trackers; t++ {
		tr := Tracker{ID: t + 1, Spam: r.Float64() < cfg.SpamFraction}
		n := cfg.SwarmsPerTracker/2 + r.Intn(cfg.SwarmsPerTracker+1)
		for s := 0; s < n; s++ {
			swarmID++
			content := zipfContent(r, cfg.Contents)
			format := cfg.AliasFormats[r.Intn(len(cfg.AliasFormats))]
			// Popularity: heavy-tailed swarm sizes; rank-1 content forms
			// giant swarms (hundreds of thousands in the study).
			base := float64(cfg.MeanSwarmSize) / float64(content) * float64(cfg.Contents) / 10
			size := int(base * (0.5 + r.Float64()))
			if size < 2 {
				size = 2
			}
			seeds := size / 3
			leechers := size - seeds
			if tr.Spam {
				// Spam trackers fabricate inflated numbers.
				seeds *= 50
				leechers *= 50
			}
			tr.Swarms = append(tr.Swarms, SwarmInfo{
				SwarmID:   swarmID,
				ContentID: content,
				Format:    format,
				Seeds:     seeds,
				Leechers:  leechers,
			})
			if !tr.Spam {
				eco.TruePeers += size
			}
		}
		eco.Trackers = append(eco.Trackers, tr)
	}
	return eco
}

// zipfContent samples a content rank in [1,n] with exponent ~1.
func zipfContent(r *rand.Rand, n int) int {
	// Inverse-power sampling without precomputation: rejection on rank.
	for {
		u := r.Float64()
		rank := int(float64(n)*u*u) + 1 // quadratic skew toward low ranks
		if rank >= 1 && rank <= n {
			return rank
		}
	}
}

// MonitorReport is the output of one BTWorld-style scrape campaign.
type MonitorReport struct {
	TrackersScraped int
	SwarmsSeen      int
	PeersObserved   int
	// PeersEstimate extrapolates the full ecosystem from the scraped sample.
	PeersEstimate int
	// SpamPeers counts observed peers that came from spam trackers.
	SpamPeers int
	// GiantSwarms counts swarms above giantThreshold peers.
	GiantSwarms int
	// Bias is (PeersEstimate - TruePeers) / TruePeers; the meta-study of
	// sampling bias (Zhang et al. Euro-Par'10).
	Bias float64
	// ContentsSeen is the number of distinct content IDs observed.
	ContentsSeen int
	// AliasedContents counts contents observed in 2+ formats.
	AliasedContents int
	// MeanAliasFactor is the mean number of swarms per observed content.
	MeanAliasFactor float64
}

const giantThreshold = 5000

// Monitor scrapes a fraction of trackers (selected deterministically by
// seed) and produces the measurement report, optionally filtering spam.
type Monitor struct {
	// SampleFraction is the fraction of trackers scraped.
	SampleFraction float64
	// FilterSpam drops trackers whose reported populations are implausible
	// (the bias-correction technique of the meta-study).
	FilterSpam bool
	Seed       int64
}

// Scrape runs the campaign against the ecosystem.
func (m Monitor) Scrape(eco *Ecosystem) (*MonitorReport, error) {
	if m.SampleFraction <= 0 || m.SampleFraction > 1 {
		return nil, fmt.Errorf("p2p: sample fraction %v", m.SampleFraction)
	}
	r := rand.New(rand.NewSource(m.Seed))
	idx := r.Perm(len(eco.Trackers))
	n := int(float64(len(eco.Trackers)) * m.SampleFraction)
	if n < 1 {
		n = 1
	}
	rep := &MonitorReport{TrackersScraped: n}
	contentSwarms := make(map[int]int)
	contentFormats := make(map[int]map[string]bool)

	// Spam detection compares each tracker's typical (median) swarm size
	// with the typical tracker's. The median, unlike the mean, ignores the
	// few giant swarms any real tracker may carry, so a spam tracker that
	// inflates every swarm stands out even when its contents are unpopular.
	typical := make([]float64, 0, n)
	sample := make([]Tracker, 0, n)
	for _, i := range idx[:n] {
		tr := eco.Trackers[i]
		sample = append(sample, tr)
		typical = append(typical, medianSwarmSize(tr))
	}
	medianPop := median(typical)

	for k, tr := range sample {
		if m.FilterSpam && medianPop > 0 && typical[k] > 10*medianPop {
			continue // implausibly inflated: classified as spam
		}
		for _, sw := range tr.Swarms {
			size := sw.Seeds + sw.Leechers
			rep.SwarmsSeen++
			rep.PeersObserved += size
			if tr.Spam {
				rep.SpamPeers += size
			}
			if size >= giantThreshold {
				rep.GiantSwarms++
			}
			contentSwarms[sw.ContentID]++
			if contentFormats[sw.ContentID] == nil {
				contentFormats[sw.ContentID] = make(map[string]bool)
			}
			contentFormats[sw.ContentID][sw.Format] = true
		}
	}

	rep.PeersEstimate = int(float64(rep.PeersObserved) / m.SampleFraction)
	if eco.TruePeers > 0 {
		rep.Bias = (float64(rep.PeersEstimate) - float64(eco.TruePeers)) / float64(eco.TruePeers)
	}
	rep.ContentsSeen = len(contentSwarms)
	totalAlias := 0
	for c, formats := range contentFormats {
		if len(formats) >= 2 {
			rep.AliasedContents++
		}
		totalAlias += contentSwarms[c]
	}
	if rep.ContentsSeen > 0 {
		rep.MeanAliasFactor = float64(totalAlias) / float64(rep.ContentsSeen)
	}
	return rep, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// medianSwarmSize is the median reported population of a tracker's swarms
// (0 for a tracker with none).
func medianSwarmSize(tr Tracker) float64 {
	sizes := make([]float64, len(tr.Swarms))
	for i, sw := range tr.Swarms {
		sizes[i] = float64(sw.Seeds + sw.Leechers)
	}
	return median(sizes)
}
