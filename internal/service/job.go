package service

import (
	"sync"
	"sync/atomic"

	apiv1 "cbws/api/v1"
)

// Status is a job's lifecycle state (wire type, see api/v1).
type Status = apiv1.Status

// The job lifecycle: queued → running (at its first scheduler slot) →
// done | failed, with canceled for jobs still queued when the daemon
// drains.
const (
	StatusQueued   = apiv1.StatusQueued
	StatusRunning  = apiv1.StatusRunning
	StatusDone     = apiv1.StatusDone
	StatusFailed   = apiv1.StatusFailed
	StatusCanceled = apiv1.StatusCanceled
)

// Progress and JobView are the wire forms served by the status and
// submit endpoints (see api/v1).
type (
	Progress = apiv1.Progress
	JobView  = apiv1.JobView
)

// Job is one accepted simulation, identified by its content address.
// Submissions of the same spec map to the same Job (idempotent
// submission), so each distinct piece of work runs once per daemon
// lifetime, unless the cache drops its record after the run.
type Job struct {
	Key  string
	Spec JobSpec

	// progress is the committed instruction count, stored from the
	// simulator's WithProgress hook every sample interval.
	progress atomic.Uint64

	mu     sync.Mutex
	status Status //cbws:guardedby mu
	errMsg string //cbws:guardedby mu
	done   chan struct{}
}

func newJob(key string, spec JobSpec) *Job {
	return &Job{Key: key, Spec: spec, status: StatusQueued, done: make(chan struct{})}
}

// set moves the job to status with msg as its error; a terminal status
// releases status waiters.
func (j *Job) set(status Status, msg string) {
	j.mu.Lock()
	j.status, j.errMsg = status, msg
	j.mu.Unlock()
	if status.Terminal() {
		close(j.done)
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	status, errMsg := j.status, j.errMsg
	j.mu.Unlock()
	done := j.progress.Load()
	if status == StatusDone {
		done = j.Spec.Config.MaxInstructions
	}
	return JobView{
		Key:        j.Key,
		Workload:   j.Spec.Workload,
		Prefetcher: j.Spec.Prefetcher,
		Status:     status,
		Progress:   Progress{Instructions: done, MaxInstructions: j.Spec.Config.MaxInstructions},
		Error:      errMsg,
	}
}
