package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"atlarge/internal/workload"
)

// FuzzReadJobs fuzzes the GWA import boundary: ReadJobs must never panic,
// every trace it accepts must obey its field rules, and an accepted trace
// must survive WriteJobs → ReadJobs unchanged.
func FuzzReadJobs(f *testing.F) {
	for c := workload.ClassSynthetic; c <= workload.ClassIndustrial; c++ {
		var buf bytes.Buffer
		tr := workload.StandardGenerator(c).Generate(2, rand.New(rand.NewSource(int64(c))))
		if err := WriteJobs(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, tc := range malformedJobRows {
		f.Add([]byte(jobCSVHeader + tc.row + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJobs(bytes.NewReader(data))
		if err != nil {
			return
		}
		seconds := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
		for _, j := range tr.Jobs {
			if !seconds(float64(j.Submit)) || !seconds(float64(j.Deadline)) {
				t.Fatalf("job %d: accepted submit %v, deadline %v", j.ID, j.Submit, j.Deadline)
			}
			if _, err := workload.ClassByName(j.Class.String()); err != nil {
				t.Fatalf("job %d: accepted class %d", j.ID, int(j.Class))
			}
			for _, task := range j.Tasks {
				if task.CPUs < 1 || !seconds(float64(task.Runtime)) || !seconds(float64(task.RuntimeEstimate)) {
					t.Fatalf("job %d: accepted task %+v", j.ID, task)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteJobs(&buf, tr); err != nil {
			t.Fatalf("write accepted trace: %v", err)
		}
		back, err := ReadJobs(&buf)
		if err != nil {
			t.Fatalf("re-read written trace: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}
