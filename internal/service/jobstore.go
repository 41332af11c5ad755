package service

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// JobStore is the server's write-ahead job journal: a wire.Journal of
// one JSON record per line, appended and fsynced at every job
// transition, so the job table — submissions, per-cell progress and
// final results — survives a kill -9 of the process. It owns the file and
// nothing else: opening it replays the records through jobTable.apply
// into the table Server.UseJobStore adopts, the server appends each
// transition here before applying it to that table, and Compact rewrites
// the file to the live minimum the table describes.
//
// Durability contract: a record is either wholly in the journal or
// wholly absent after a crash. Recovery tolerates exactly one torn tail
// (the journal's torn-tail rule) and never invents state that was not
// durably journaled.
type JobStore struct {
	// mu serialises writers of the file. An append never holds it together
	// with the table's mutex, so an fsync blocks other appends only.
	mu      sync.Mutex
	j       *wire.Journal
	records int // physical records in the file

	table *jobTable // what the file replayed to; the server's table once attached

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
	Policy *finject.Config     `json:"policy,omitempty"`
	Spec   json.RawMessage     `json:"spec,omitempty"`

	// Cell records journal one per-cell state transition. A batch's carry
	// the result, so a finished batch job serves /result from the journal
	// alone after a restart; an experiment's do not — its durable answer
	// is the finish record's exp_result.
	Index      int             `json:"index,omitempty"`
	State      string          `json:"state,omitempty"` // cell state, or the final job state on finish records
	Cached     bool            `json:"cached,omitempty"`
	Injections int             `json:"injections,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     *finject.Result `json:"result,omitempty"`

	// Finish records carry the experiment's assembled result.
	ExpResult *experiment.Result `json:"exp_result,omitempty"`

	// work is the unjournaled half of a submit record applied by the
	// process that runs the job: the compiled cells as status shows them
	// and the run's cancel func. encoding/json skips it, so a replayed
	// submit record has none — its cells are the raw submitted ones until
	// resume recompiles the job and applies the record again.
	work *jobWork
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
// replays it into a fresh job table. A torn final record is truncated
// away; any other malformed line is an error, not a guess.
func OpenJobStore(path string) (*JobStore, error) {
	js := &JobStore{table: &jobTable{jobs: make(map[string]*job)}}
	j, err := wire.OpenJournal(path, wire.Lines, true, func(line wire.Record) error {
		var rec journalRecord
		if err := json.Unmarshal(line.Payload, &rec); err != nil {
			return fmt.Errorf("corrupt record at offset %d: %w", line.Off, err)
		}
		js.table.apply(rec)
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
	if js.records-len(js.table.liveRecords()) > campaign.CompactDeadThreshold {
		if err := js.Compact(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return js, nil
}

// append journals one record durably (marshal, then the journal's
// single write(2) + fsync), so a crash leaves the record wholly present
// or wholly absent — except under the injected torn-cell barrier, which
// deliberately crashes half-way through the write. It writes the file
// only: applying the record to the table is the caller's next step.
func (js *JobStore) append(rec journalRecord) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: job store append: %w", err)
	}
	switch {
	case rec.Event == "cell" && js.fireLocked(CrashTornCell):
		js.j.AppendTorn(buf)
		killSelf()
	case rec.Event == "finish" && js.fireLocked(CrashPreFinish):
		// Every cell durably journaled, the finish record not: recovery
		// must reassemble the result with zero re-injections.
		killSelf()
	}
	if err := js.j.Append(buf); err != nil {
		return fmt.Errorf("service: job store append: %w", err)
	}
	js.records++
	telemetry.JobJournalAppends.Inc()
	switch {
	case rec.Event == "submit" && js.fireLocked(CrashPostSubmit):
		killSelf()
	case rec.Event == "cell" && js.fireLocked(CrashMidCell):
		killSelf()
	}
	return nil
}

// Records reports the physical record count of the backing file.
func (js *JobStore) Records() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.records
}

// Len reports the number of retained jobs in the journal.
func (js *JobStore) Len() int { return len(js.table.list()) }

// Path returns the backing file's path.
func (js *JobStore) Path() string { return js.j.Path() }

// Compact rewrites the journal down to the live minimum the table
// describes — one submit record, the settled cell records and the finish
// record per retained job — through the journal's atomic rewrite: a
// crash at any point leaves either the old complete file or the new one.
// The table's lock is released before the rewrite, so a transition
// appended but not yet applied at that moment would be lost from the
// file: OpenJobStore compacts before anything else holds the store, and
// any other caller must likewise be the only writer.
func (js *JobStore) Compact() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	recs := js.table.liveRecords()
	err := js.j.Rewrite(func(put func(payload []byte)) error {
		for _, rec := range recs {
			buf, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			put(buf)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: compact job store: %w", err)
	}
	js.records = len(recs)
	telemetry.JobJournalCompactions.Inc()
	return nil
}

// Close closes the journal. The store must not be used afterwards.
func (js *JobStore) Close() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.j.Close()
}
