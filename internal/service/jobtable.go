package service

import (
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
)

// job is one submitted batch or one experiment run. The fields down to
// cancel are set once, by the submit record that creates the job, and
// read without a lock; the progress fields below them are guarded by the
// table's mutex and assigned by jobTable.apply alone.
type job struct {
	id   string
	kind string // "batch" or "experiment"
	// tenant is the submitting tenant ("" on open servers); in
	// multi-tenant mode other tenants cannot see this job.
	tenant string
	// The definition as submitted: the raw cells and policy of a batch,
	// the normalized spec of an experiment. Compact writes it back byte
	// for byte and resume recompiles the run from it.
	rawCells []campaign.CellSpec
	policy   *finject.Config
	rawSpec  json.RawMessage
	// cancel aborts the job's run; a no-op for a job this process is not
	// running (replayed from the journal and not resumed).
	cancel context.CancelFunc

	state     string // "running", "done", "failed", "canceled"
	done      int    // settled cells
	cells     []api.CellStatus
	results   []*finject.Result  // per cell, what a batch's /result serves
	expResult *experiment.Result // a finished experiment's result
	errMsg    string
}

// jobTable is the server's one job table: every retained job, in
// submission order. Its only mutator is apply; the live server and
// journal replay both reach job state through it, so a restarted server
// holds exactly what the records it replayed describe.
//
// mu guards the table and every job's progress fields. It is held only
// for in-memory work — never across a journal append or a network write —
// so a status read never waits on another job's fsync.
type jobTable struct {
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job ids in submission order, for listing and eviction
	maxSeq int      // highest numeric id suffix ever applied
}

// apply folds one journal record into the table — the single place job
// state is assigned. Semantically invalid records (unknown job,
// out-of-range index) are skipped: the table never invents state.
func (t *jobTable) apply(rec journalRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyLocked(rec)
}

func (t *jobTable) applyLocked(rec journalRecord) {
	t.noteSeqLocked(rec.Job)
	j := t.jobs[rec.Job]
	switch rec.Event {
	case "submit":
		nj := &job{
			id: rec.Job, kind: rec.Kind, tenant: rec.Tenant,
			rawCells: rec.Cells, policy: rec.Policy, rawSpec: rec.Spec,
			cancel: func() {},
			state:  "running",
		}
		specs := rec.Cells
		if rec.work != nil {
			specs, nj.cancel = rec.work.specs, rec.work.cancel
		}
		nj.cells = make([]api.CellStatus, len(specs))
		nj.results = make([]*finject.Result, len(specs))
		for i, cs := range specs {
			nj.cells[i] = api.CellStatus{Spec: cs.Normalize(), State: "pending"}
		}
		// A second submit record for a retained id is a resume: the job
		// starts over in its original place.
		if j == nil {
			t.order = append(t.order, rec.Job)
		}
		t.jobs[rec.Job] = nj
	case "cell":
		if j == nil || rec.Index < 0 || rec.Index >= len(j.cells) {
			return
		}
		c := &j.cells[rec.Index]
		if c.State == "pending" {
			j.done++
		}
		*c = api.CellStatus{
			Spec:       c.Spec,
			State:      rec.State,
			Cached:     rec.Cached,
			Injections: rec.Injections,
			Error:      rec.Error,
		}
		j.results[rec.Index] = rec.Result
	case "finish":
		if j == nil {
			return
		}
		j.state, j.errMsg, j.expResult = rec.State, rec.Error, rec.ExpResult
	case "delete":
		if j == nil {
			return
		}
		delete(t.jobs, rec.Job)
		i := slices.Index(t.order, rec.Job)
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// noteSeqLocked records the numeric suffix of an applied job id so the id
// sequence resumes past every id ever minted — deleted ones included.
func (t *jobTable) noteSeqLocked(id string) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return
	}
	if n, err := strconv.Atoi(id[i+1:]); err == nil && n > t.maxSeq {
		t.maxSeq = n
	}
}

// nextSeq mints the next id number. Experiments and batches share the
// one sequence; their ids differ in the prefix.
func (t *jobTable) nextSeq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxSeq++
	return t.maxSeq
}

// get returns a copy of the retained job id — what the read handlers
// render, and encode without the lock, so a slow client never holds up a
// job's transitions — or nil.
func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[id]
	if j == nil {
		return nil
	}
	c := *j
	c.cells = append([]api.CellStatus{}, j.cells...)
	c.results = append([]*finject.Result(nil), j.results...)
	return &c
}

// list returns the retained jobs in submission order.
func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*job, len(t.order))
	for i, id := range t.order {
		out[i] = t.jobs[id]
	}
	return out
}

// Removal is the one transition the table performs before the journal
// hears of it: choosing a victim and removing it must be one step under
// the lock (or two racing requests would each journal the same delete),
// and a delete record lost to a crash is harmless — the job reappears
// and is evicted again. The caller of evict and remove journals one
// delete record per removed job after the lock is released.

// evict removes the oldest finished jobs beyond max and returns the
// delete records it applied.
func (t *jobTable) evict(max int) []journalRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evicted []journalRecord
	for i := 0; len(t.jobs) > max && i < len(t.order); {
		rec := journalRecord{Event: "delete", Job: t.order[i]}
		if t.jobs[rec.Job].state == "running" {
			i++
			continue
		}
		t.applyLocked(rec)
		evicted = append(evicted, rec)
	}
	return evicted
}

// remove removes the (finished) job id and reports whether the table
// still retained it.
func (t *jobTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.jobs[id]
	t.applyLocked(journalRecord{Event: "delete", Job: id})
	return ok
}

// liveRecords returns what a compacted journal holds: per retained job,
// in submission order, the submit record rebuilt from the raw definition,
// one record per settled cell and the finish record if there is one.
func (t *jobTable) liveRecords() []journalRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var recs []journalRecord
	for _, id := range t.order {
		j := t.jobs[id]
		recs = append(recs, journalRecord{
			Event: "submit", Job: id, Kind: j.kind, Tenant: j.tenant,
			Cells: j.rawCells, Policy: j.policy, Spec: j.rawSpec,
		})
		for i, c := range j.cells {
			if c.State == "pending" {
				continue
			}
			recs = append(recs, journalRecord{
				Event: "cell", Job: id, Index: i, State: c.State,
				Cached: c.Cached, Injections: c.Injections, Error: c.Error,
				Result: j.results[i],
			})
		}
		if j.state != "running" {
			recs = append(recs, journalRecord{
				Event: "finish", Job: id, State: j.state,
				Error: j.errMsg, ExpResult: j.expResult,
			})
		}
	}
	return recs
}
