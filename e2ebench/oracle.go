package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"oddci/internal/journal"
	"oddci/internal/transport"
	"oddci/internal/workload"
)

// taskResult is the output a correct worker returns for a task payload:
// the payload's FNV-1a hash. It is installed as backend.RunConcrete, so
// every simulated worker really computes it and the oracle can tell a
// wrong or swapped result from a right one.
func taskResult(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	return binary.BigEndian.AppendUint64(nil, h.Sum64())
}

// expectedResult is what the Backend must commit for t: taskResult of
// its payload, or nothing for a task that carries none (the TCP task
// plane returns no payload).
func expectedResult(t workload.Task) []byte {
	p, _ := t.Payload.([]byte)
	if len(p) == 0 {
		return nil
	}
	return taskResult(p)
}

// commitView is what the oracle sees of a finished job.
type commitView struct {
	tasks      []workload.Task
	results    map[int][]byte // committed payload per task ID
	completed  int64          // Backend.Completed: commits across the run
	unresolved int64          // tasks committed by plurality without quorum
}

// checkCommits returns how many tasks failed: not committed, committed
// with a wrong result, or committed without a quorum. Committing
// anything twice (completed beyond the task count) fails the run.
func checkCommits(v commitView) (failed int, err error) {
	var firstBad error
	for _, t := range v.tasks {
		got, ok := v.results[t.ID]
		switch {
		case !ok:
			failed++
			if firstBad == nil {
				firstBad = fmt.Errorf("task %d never committed", t.ID)
			}
		case !bytes.Equal(got, expectedResult(t)):
			failed++
			if firstBad == nil {
				firstBad = fmt.Errorf("task %d committed %x, want %x", t.ID, got, expectedResult(t))
			}
		}
	}
	if v.unresolved > 0 {
		failed += int(v.unresolved)
		if firstBad == nil {
			firstBad = fmt.Errorf("%d tasks committed without a quorum", v.unresolved)
		}
	}
	if v.completed != int64(len(v.tasks)) {
		if failed == 0 {
			failed = 1
		}
		if firstBad == nil {
			firstBad = fmt.Errorf("backend committed %d times for %d tasks", v.completed, len(v.tasks))
		}
	}
	if failed > len(v.tasks) {
		failed = len(v.tasks)
	}
	return failed, firstBad
}

// joinBand is the stage_fanout check against the paper's model. The
// analytic wakeup delay W = 1.5·I/β is the mean wait of a
// file-granularity receiver that tunes in at a uniformly random point
// of the cycle: half a cycle on average to reach the module's start,
// then one full cycle to read it. Taking I/β as the measured carousel
// cycle C (which includes the Xlet, the control file and DSM-CC/TS
// framing), a single wakeup's median join lies between the best case
// of one cycle (W/1.5) and the worst of two (W·4/3). The slack covers
// what the model leaves out: the cycle-boundary wait before the new
// generation airs, signalling and DVE start, and the seeded offset of
// the wakeup.
func joinBand(cycle time.Duration) (lo, hi time.Duration) {
	w := time.Duration(1.5 * float64(cycle))
	slack := cycle / 4
	return time.Duration(float64(w)/1.5) - slack, time.Duration(float64(w)*4/3) + slack
}

func checkJoinBand(p50, cycle time.Duration) error {
	lo, hi := joinBand(cycle)
	if p50 < lo || p50 > hi {
		return fmt.Errorf("join p50 %v outside the analytic band [%v, %v] (cycle %v)", p50, lo, hi, cycle)
	}
	return nil
}

// checkNodeReports is the tcp_loopback check: every agent joined, both
// the binary task plane and the delta image plane were negotiated, and
// the agents' task counts add up to the job.
func checkNodeReports(reps []transport.NodeReport, tasks int) error {
	done := 0
	for i, r := range reps {
		switch {
		case !r.Joined:
			return fmt.Errorf("node %d never joined", i+1)
		case !r.BinaryTaskPlane:
			return fmt.Errorf("node %d fell back to the JSON task plane", i+1)
		case !r.DeltaImage:
			return fmt.Errorf("node %d fell back to the full-image plane", i+1)
		}
		done += r.TasksDone
	}
	if done != tasks {
		return fmt.Errorf("nodes report %d tasks done, job has %d", done, tasks)
	}
	return nil
}

// checkJournal is the churn_recompose check: the state directory must
// reopen and replay cleanly, hold exactly the records the run appended,
// and replay to the instance's final wakeup count and image.
func checkJournal(dir string, appended int, wakeups uint32, image []byte) error {
	st, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	state, err := st.Load()
	if cerr := st.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(files) != 1 {
		return fmt.Errorf("journal file: found %d (%v)", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	recs, err := journal.DecodeJournal(raw)
	if err != nil {
		return fmt.Errorf("journal decode: %w", err)
	}
	if len(recs) != appended {
		return fmt.Errorf("journal holds %d records, run appended %d", len(recs), appended)
	}
	inst := state.Instances[1]
	switch {
	case inst == nil:
		return errors.New("journal replay lost the instance")
	case inst.Wakeups != wakeups:
		return fmt.Errorf("journal replays %d wakeups, controller sent %d", inst.Wakeups, wakeups)
	case !bytes.Equal(inst.Image, image):
		return errors.New("journal replays a stale image")
	}
	return nil
}
