package service

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// JobStore is the server's write-ahead job journal: a wire.Journal of
// one JSON record per line, appended and fsynced at every state
// transition, so the job table — submissions, per-cell progress and
// final results — survives a kill -9 of the process. Appends shadow
// earlier records, recovery replays the file, and Compact rewrites it to
// the live minimum.
//
// Durability contract: a record is either wholly in the journal or
// wholly absent after a crash. Recovery tolerates exactly one torn tail
// (the journal's torn-tail rule) and never invents state that was not
// durably journaled.
type JobStore struct {
	mu      sync.Mutex
	j       *wire.Journal
	records int // physical records in the file

	snaps  map[string]*jobSnapshot
	order  []string // job ids in submission order
	maxSeq int      // highest numeric id suffix ever journaled

	faultPoint string
	faultFired bool
}

// journalRecord is one JSON line of the job journal. Event selects which
// of the remaining fields are meaningful.
type journalRecord struct {
	Event string `json:"event"` // "submit", "cell", "finish" or "delete"
	Job   string `json:"job"`

	// Submit records carry the job's full definition: the raw submitted
	// cell specs and policy for batches, the normalized experiment spec
	// for experiments. Recovery replays them through the same validation
	// and compilation path as a fresh submission.
	Kind   string              `json:"kind,omitempty"`
	Tenant string              `json:"tenant,omitempty"`
	Cells  []campaign.CellSpec `json:"cells,omitempty"`
	Policy *jobPolicy          `json:"policy,omitempty"`
	Spec   json.RawMessage     `json:"spec,omitempty"`

	// Cell records journal one per-cell state transition, including the
	// result so a finished batch job serves /result from the journal
	// alone after a restart.
	Index      int             `json:"index,omitempty"`
	State      string          `json:"state,omitempty"` // cell state, or the final job state on finish records
	Cached     bool            `json:"cached,omitempty"`
	Injections int             `json:"injections,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     *finject.Result `json:"result,omitempty"`

	// Finish records carry the experiment's assembled result.
	ExpResult *experiment.Result `json:"exp_result,omitempty"`
}

// jobSnapshot is one job as reconstructed from the journal. State stays
// "" for a job that was still running when the previous process died —
// the recovery path resumes it through the scheduler.
type jobSnapshot struct {
	ID        string
	Kind      string
	Tenant    string
	RawCells  []campaign.CellSpec
	Policy    *jobPolicy
	Spec      json.RawMessage
	Cells     []cellState
	Results   []*finject.Result
	State     string
	ErrMsg    string
	ExpResult *experiment.Result
}

// Crash barriers the chaos harness injects via JobStore.SetFaultPoint
// (wired to the FISERVER_CRASH environment variable by cmd/fiserver;
// test-only). At each barrier the process delivers SIGKILL to itself —
// the genuine crash the restart-proof guarantee is tested against: no
// deferred cleanup, no flushes, no graceful drain.
const (
	// CrashPostSubmit kills the process right after a submit record is
	// durably journaled (the client may never see the job id).
	CrashPostSubmit = "post-submit"
	// CrashMidCell kills the process right after the first cell record
	// is durably journaled (the campaign is demonstrably underway).
	CrashMidCell = "mid-cell"
	// CrashPreFinish kills the process after every cell has been
	// journaled but before the finish record is written.
	CrashPreFinish = "pre-finish"
	// CrashTornCell kills the process half-way through writing a cell
	// record, leaving a genuinely torn journal tail on disk.
	CrashTornCell = "torn-cell"
)

// SetFaultPoint arms a crash barrier (one of the Crash* constants). The
// barrier fires once. Test-only: production servers never set it.
func (js *JobStore) SetFaultPoint(p string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.faultPoint = p
}

// fireLocked reports whether the armed barrier p should trip now, at
// most once per process. Callers hold js.mu.
func (js *JobStore) fireLocked(p string) bool {
	if js.faultPoint != p || js.faultFired {
		return false
	}
	js.faultFired = true
	return true
}

// killSelf delivers SIGKILL to the current process and never returns.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // SIGKILL delivery is asynchronous; block until it lands
}

// OpenJobStore opens (creating if absent) the journal at path and
// replays it. A torn final record is truncated away; any other
// malformed line is an error, not a guess.
func OpenJobStore(path string) (*JobStore, error) {
	js := &JobStore{snaps: make(map[string]*jobSnapshot)}
	j, err := wire.OpenJournal(path, wire.Lines, true, func(line wire.Record) error {
		var rec journalRecord
		if err := json.Unmarshal(line.Payload, &rec); err != nil {
			return fmt.Errorf("corrupt record at offset %d: %w", line.Off, err)
		}
		js.applyLocked(rec)
		js.records++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: job store %s: %w", path, err)
	}
	js.j = j
	if j.Healed() > 0 {
		telemetry.JobJournalTornTails.Inc()
	}
	if js.records-js.liveRecordsLocked() > campaign.CompactDeadThreshold {
		if err := js.Compact(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return js, nil
}

// applyLocked folds one record into the snapshot table. Semantically
// invalid records (unknown job, out-of-range index) are skipped: the
// journal never invents state. Callers hold js.mu (or own js
// exclusively, as OpenJobStore does).
func (js *JobStore) applyLocked(rec journalRecord) {
	js.noteSeqLocked(rec.Job)
	switch rec.Event {
	case "submit":
		snap := &jobSnapshot{
			ID:       rec.Job,
			Kind:     rec.Kind,
			Tenant:   rec.Tenant,
			RawCells: rec.Cells,
			Policy:   rec.Policy,
			Spec:     rec.Spec,
			Cells:    make([]cellState, len(rec.Cells)),
			Results:  make([]*finject.Result, len(rec.Cells)),
		}
		for i, cs := range rec.Cells {
			snap.Cells[i] = cellState{Spec: cs.Normalize(), State: "pending"}
		}
		if _, ok := js.snaps[rec.Job]; !ok {
			js.order = append(js.order, rec.Job)
		}
		js.snaps[rec.Job] = snap
	case "cell":
		snap := js.snaps[rec.Job]
		if snap == nil || rec.Index < 0 || rec.Index >= len(snap.Cells) {
			return
		}
		snap.Cells[rec.Index] = cellState{
			Spec:       snap.Cells[rec.Index].Spec,
			State:      rec.State,
			Cached:     rec.Cached,
			Injections: rec.Injections,
			Error:      rec.Error,
		}
		snap.Results[rec.Index] = rec.Result
	case "finish":
		snap := js.snaps[rec.Job]
		if snap == nil {
			return
		}
		snap.State = rec.State
		snap.ErrMsg = rec.Error
		snap.ExpResult = rec.ExpResult
	case "delete":
		if _, ok := js.snaps[rec.Job]; !ok {
			return
		}
		delete(js.snaps, rec.Job)
		for i, id := range js.order {
			if id == rec.Job {
				js.order = append(js.order[:i], js.order[i+1:]...)
				break
			}
		}
	}
}

// noteSeqLocked records the numeric suffix of a journaled job id so the
// id sequence resumes past every id ever minted — deleted ones included.
func (js *JobStore) noteSeqLocked(id string) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n <= js.maxSeq {
		return
	}
	js.maxSeq = n
}

// MaxSeq returns the highest numeric id suffix seen in the journal; the
// server restores its id counter past it so ids never collide across
// restarts.
func (js *JobStore) MaxSeq() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.maxSeq
}

// snapshots returns the replayed jobs in submission order.
func (js *JobStore) snapshots() []*jobSnapshot {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]*jobSnapshot, 0, len(js.order))
	for _, id := range js.order {
		out = append(out, js.snaps[id])
	}
	return out
}

// append journals one record durably (marshal, then the journal's
// single write(2) + fsync), so a crash leaves the record wholly present
// or wholly absent — except under the injected torn-cell barrier, which
// deliberately crashes half-way through the write.
func (js *JobStore) append(rec journalRecord) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: job store append: %w", err)
	}
	if rec.Event == "cell" && js.fireLocked(CrashTornCell) {
		js.j.AppendTorn(buf)
		killSelf()
	}
	if err := js.j.Append(buf); err != nil {
		return fmt.Errorf("service: job store append: %w", err)
	}
	js.records++
	js.applyLocked(rec)
	telemetry.JobJournalAppends.Inc()
	switch {
	case rec.Event == "submit" && js.fireLocked(CrashPostSubmit):
		killSelf()
	case rec.Event == "cell" && js.fireLocked(CrashMidCell):
		killSelf()
	}
	return nil
}

// appendFinish journals a job's terminal state. The pre-finish crash
// barrier sits here: every cell durably journaled, the finish record
// not — recovery must reassemble the result with zero re-injections.
func (js *JobStore) appendFinish(rec journalRecord) error {
	js.mu.Lock()
	fire := js.fireLocked(CrashPreFinish)
	js.mu.Unlock()
	if fire {
		killSelf()
	}
	return js.append(rec)
}

// liveRecordsLocked counts the records a compacted journal would hold:
// per retained job, one submit, one record per settled cell and one
// finish record if the job is finished. Callers hold js.mu (or own js
// exclusively).
func (js *JobStore) liveRecordsLocked() int {
	n := 0
	for _, snap := range js.snaps {
		n++
		for _, c := range snap.Cells {
			if c.State != "pending" {
				n++
			}
		}
		if snap.State != "" {
			n++
		}
	}
	return n
}

// Records reports the physical record count of the backing file.
func (js *JobStore) Records() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.records
}

// Len reports the number of retained jobs in the journal.
func (js *JobStore) Len() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.snaps)
}

// Path returns the backing file's path.
func (js *JobStore) Path() string { return js.j.Path() }

// Compact rewrites the journal down to the live minimum — one submit
// record, the settled cell records and the finish record per retained
// job — through the journal's atomic rewrite: a crash at any point
// leaves either the old complete file or the new one.
func (js *JobStore) Compact() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	written := 0
	err := js.j.Rewrite(func(put func(payload []byte)) error {
		for _, id := range js.order {
			snap := js.snaps[id]
			recs := []journalRecord{{
				Event: "submit", Job: id, Kind: snap.Kind, Tenant: snap.Tenant,
				Cells: snap.RawCells, Policy: snap.Policy, Spec: snap.Spec,
			}}
			for i, c := range snap.Cells {
				if c.State == "pending" {
					continue
				}
				recs = append(recs, journalRecord{
					Event: "cell", Job: id, Index: i, State: c.State,
					Cached: c.Cached, Injections: c.Injections, Error: c.Error,
					Result: snap.Results[i],
				})
			}
			if snap.State != "" {
				recs = append(recs, journalRecord{
					Event: "finish", Job: id, State: snap.State,
					Error: snap.ErrMsg, ExpResult: snap.ExpResult,
				})
			}
			for _, rec := range recs {
				buf, err := json.Marshal(rec)
				if err != nil {
					return err
				}
				put(buf)
				written++
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: compact job store: %w", err)
	}
	js.records = written
	telemetry.JobJournalCompactions.Inc()
	return nil
}

// Close closes the journal. The store must not be used afterwards.
func (js *JobStore) Close() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.j.Close()
}
