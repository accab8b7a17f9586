package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// digestJob feeds every field of j, and of each of its tasks, into h in a
// fixed binary layout.
func digestJob(h hash.Hash, j *Job) {
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(j.ID))
	word(math.Float64bits(float64(j.Submit)))
	word(uint64(j.Class))
	word(math.Float64bits(float64(j.Deadline)))
	word(uint64(len(j.Tasks)))
	for _, t := range j.Tasks {
		word(uint64(t.ID))
		word(uint64(t.JobID))
		word(uint64(t.CPUs))
		word(math.Float64bits(float64(t.Runtime)))
		word(math.Float64bits(float64(t.RuntimeEstimate)))
		word(uint64(len(t.Deps)))
		for _, d := range t.Deps {
			word(uint64(d))
		}
	}
}

// TestPopulationStreamDigest pins the population stream itself: the first
// 2·10⁴ jobs of a 10⁴-client population, hashed field by field, must match
// digests recorded from the generator, for every skew and one mixed-class
// population. Any change to client seeding, skew draws, the merge order or
// job bodies shows up here.
func TestPopulationStreamDigest(t *testing.T) {
	const clients, jobs = 10000, 20000
	cases := []struct {
		name string
		pop  Population
		want string
	}{
		{"none", Population{Clients: clients, Mix: SingleClass(ClassSynthetic), Seed: 5},
			"c1b08ea2ca4db2e37e1aa52e5990586fb5c7bb03ce6cb74c1e2c865d9f74c868"},
		{"zipf", Population{Clients: clients, Mix: SingleClass(ClassSynthetic), Skew: Skew{Kind: "zipf"}, Seed: 5},
			"80c5e8ff5d583a9aedc1c1b87525a17902b7b84e01bc9512d3cd8dc0a3f616f4"},
		{"lognormal", Population{Clients: clients, Mix: SingleClass(ClassScientific), Skew: Skew{Kind: "lognormal"}, Seed: 5},
			"43de1f923dc76f699ead1cd1a881047e63995b594c3ca9fba47e74aa7b57b97e"},
		{"mix", Population{Clients: clients, Mix: []ClassShare{
			{Class: ClassBigData, Weight: 2},
			{Class: ClassComputerEngineering, Weight: 1},
		}, Skew: Skew{Kind: "zipf"}, Seed: 5},
			"e97946bc3c86857b64918656a1637659dc700e662afa43690a33802f5be28ddf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.pop.Source()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			h := sha256.New()
			for i := 0; i < jobs; i++ {
				digestJob(h, src.Next())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}
