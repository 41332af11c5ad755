package service

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
)

// RecoveryStats summarizes one boot-time journal recovery.
type RecoveryStats struct {
	// Restored is the number of jobs the journal replayed to, finished
	// and unfinished alike.
	Restored int
	// Resumed is the subset that was still unfinished when the previous
	// process died and is now re-driven through the scheduler.
	Resumed int
}

// UseJobStore attaches the write-ahead job journal to the server: the
// table the journal replayed into becomes the server's job table, every
// transition from here on is appended to the file before it is applied,
// and the id sequence continues past the highest journaled id. Replay
// went through the same jobTable.apply the live server uses, so —
//
//   - finished jobs need no restoring: they are in the table, and GET
//     /v1/jobs/{id} and /result answer exactly as before the restart,
//     with zero re-execution;
//   - unfinished jobs (submitted, possibly partially run, never
//     finished) are resumed: recompiled from the journaled definition and
//     started again through the same start and run as a submission, minus
//     admission. Cells that completed before the crash are in the warm
//     campaign store and come back as cache hits with zero re-injections;
//     determinism makes the final result byte-identical to an
//     uninterrupted run. An experiment resumes detached — no stream is
//     left to feed; its client polls the job for the result;
//   - a journaled submission that no longer compiles (say, a chip renamed
//     between versions) is finished as failed, carrying the error, and
//     journaled so — recovery never invents results and never drops a
//     job silently.
//
// Call it once, after NewServer and before serving traffic.
func (s *Server) UseJobStore(js *JobStore) (RecoveryStats, error) {
	var stats RecoveryStats
	if s.jstore != nil {
		return stats, fmt.Errorf("service: job store already attached")
	}
	s.jstore, s.table = js, js.table

	for _, j := range s.table.list() {
		telemetry.JobsRecovered.Inc()
		stats.Restored++
		if j.state != "running" {
			continue
		}
		work, err := j.compile()
		if err != nil {
			s.record(journalRecord{Event: "finish", Job: j.id, State: "failed", Error: fmt.Sprintf("recovery: %v", err)})
			s.log.Warn("job recovery failed", "job", j.id, "err", err)
			continue
		}
		ctx, _, err := s.start(context.Background(), nil, work)
		if err != nil {
			return stats, fmt.Errorf("service: resume %s: %w", j.id, err)
		}
		telemetry.JobsResumed.Inc()
		stats.Resumed++
		go s.run(ctx, work, nil)
	}
	s.mu.Lock()
	maxRetained := s.maxRetained
	s.mu.Unlock()
	s.journal(s.table.evict(maxRetained)...)
	return stats, nil
}
