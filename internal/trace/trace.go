// Package trace implements the archive formats the paper's dissemination
// principle calls for (§3.6, FAIR/FOAD): a GWA-style job-trace codec for
// datacenter workloads, the Peer-to-Peer Trace Archive format for download
// records, and the Game Trace Archive format for match records. All formats
// are line-oriented CSV with a header, plus JSON codecs for tool interchange.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// jobHeader is the GWA-like column set.
var jobHeader = []string{
	"job_id", "submit_s", "task_id", "cpus", "runtime_s", "estimate_s", "deps", "class", "deadline_s",
}

// WriteJobs encodes a workload trace as GWA-style CSV, one row per task.
func WriteJobs(w io.Writer, tr *workload.Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range tr.Jobs {
		for _, t := range j.Tasks {
			deps := make([]string, len(t.Deps))
			for i, d := range t.Deps {
				deps[i] = strconv.Itoa(d)
			}
			row := []string{
				strconv.Itoa(j.ID),
				formatF(float64(j.Submit)),
				strconv.Itoa(t.ID),
				strconv.Itoa(t.CPUs),
				formatF(float64(t.Runtime)),
				formatF(float64(t.RuntimeEstimate)),
				strings.Join(deps, ";"),
				strconv.Itoa(int(j.Class)),
				formatF(float64(j.Deadline)),
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJobs decodes a GWA-style CSV back into a workload trace. Every
// submit time, runtime, estimate and deadline must be a finite,
// non-negative number of seconds, every task needs at least one CPU, and
// the class must be a known workload class; an error names the first line
// that breaks a rule.
func ReadJobs(r io.Reader) (*workload.Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	if got := strings.Join(rows[0], ","); got != strings.Join(jobHeader, ",") {
		return nil, fmt.Errorf("trace: unexpected header %q", got)
	}
	jobs := map[int]*workload.Job{}
	var order []int
	for ln, row := range rows[1:] {
		if len(row) != len(jobHeader) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", ln+2, len(row), len(jobHeader))
		}
		p := rowParser{row: row, line: ln + 2}
		jobID := p.integer(0)
		submit := p.seconds(1)
		taskID := p.integer(2)
		cpus := p.integer(3)
		runtime := p.seconds(4)
		estimate := p.seconds(5)
		deps := p.deps(6)
		class := workload.Class(p.integer(7))
		deadline := p.seconds(8)
		if cpus < 1 {
			p.fail(3, fmt.Errorf("got %d, want at least 1", cpus))
		}
		// A known class resolves from its own acronym; an unknown one
		// prints as Class(n), which names no class.
		if _, err := workload.ClassByName(class.String()); err != nil {
			p.fail(7, fmt.Errorf("unknown class %d", int(class)))
		}
		if p.err != nil {
			return nil, p.err
		}
		job, ok := jobs[jobID]
		if !ok {
			job = &workload.Job{
				ID:       jobID,
				Submit:   sim.Time(submit),
				Class:    class,
				Deadline: sim.Duration(deadline),
			}
			jobs[jobID] = job
			order = append(order, jobID)
		}
		job.Tasks = append(job.Tasks, workload.Task{
			ID:              taskID,
			JobID:           jobID,
			CPUs:            cpus,
			Runtime:         sim.Duration(runtime),
			RuntimeEstimate: sim.Duration(estimate),
			Deps:            deps,
		})
	}
	tr := &workload.Trace{Name: "decoded"}
	for _, id := range order {
		tr.Jobs = append(tr.Jobs, jobs[id])
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return tr, nil
}

// rowParser decodes the columns of one CSV row, keeping the first error
// with its line and column name.
type rowParser struct {
	row  []string
	line int
	err  error
}

func (p *rowParser) fail(col int, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("trace: line %d %s: %w", p.line, jobHeader[col], err)
	}
}

func (p *rowParser) integer(col int) int {
	v, err := strconv.Atoi(p.row[col])
	if err != nil {
		p.fail(col, err)
	}
	return v
}

// seconds parses a time or duration column: a finite, non-negative number.
func (p *rowParser) seconds(col int) float64 {
	v, err := strconv.ParseFloat(p.row[col], 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		err = fmt.Errorf("%s is not a finite, non-negative number of seconds", p.row[col])
	}
	if err != nil {
		p.fail(col, err)
	}
	return v
}

// deps parses a ';'-separated list of task IDs; an empty column is nil.
func (p *rowParser) deps(col int) []int {
	if p.row[col] == "" {
		return nil
	}
	var out []int
	for _, d := range strings.Split(p.row[col], ";") {
		dv, err := strconv.Atoi(d)
		if err != nil {
			p.fail(col, err)
			return nil
		}
		out = append(out, dv)
	}
	return out
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// P2PRecord is one row of the Peer-to-Peer Trace Archive.
type P2PRecord struct {
	PeerID   int     `json:"peer_id"`
	Class    string  `json:"class"`
	JoinS    float64 `json:"join_s"`
	DoneS    float64 `json:"done_s"`
	Duration float64 `json:"duration_s"`
	Group    int     `json:"group,omitempty"`
}

// WriteP2P encodes records as JSON lines.
func WriteP2P(w io.Writer, recs []P2PRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: p2p encode: %w", err)
		}
	}
	return nil
}

// ReadP2P decodes JSON-lines records.
func ReadP2P(r io.Reader) ([]P2PRecord, error) {
	dec := json.NewDecoder(r)
	var out []P2PRecord
	for {
		var rec P2PRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: p2p decode: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// GameRecord is one row of the Game Trace Archive (one match).
type GameRecord struct {
	MatchID     int     `json:"match_id"`
	StartH      float64 `json:"start_h"`
	Players     []int   `json:"players"`
	Winner      int     `json:"winner"`
	DurationMin float64 `json:"duration_min"`
}

// WriteGames encodes match records as JSON lines.
func WriteGames(w io.Writer, recs []GameRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: game encode: %w", err)
		}
	}
	return nil
}

// ReadGames decodes JSON-lines match records.
func ReadGames(r io.Reader) ([]GameRecord, error) {
	dec := json.NewDecoder(r)
	var out []GameRecord
	for {
		var rec GameRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: game decode: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}
