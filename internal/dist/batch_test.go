package dist

import (
	"fmt"
	"testing"

	"icfp/internal/exp"
	"icfp/internal/spec"
)

// TestBatchFloorKeepsPoolsBusy pins the sizing floor: with a wide worker
// pool, a batch never starves it below one job per pool slot while jobs
// remain, even when several workers share the queue.
func TestBatchFloorKeepsPoolsBusy(t *testing.T) {
	d := &dispatcher{opts: &Options{Parallel: 8}}
	d.active = 4 // several workers competing shrinks each share
	for i := 0; i < 32; i++ {
		sj := spec.Job{Machine: spec.Machine{Model: spec.ModelInOrder}, Workload: spec.SPECWorkload("mcf", 1_000+i)}
		d.ready = append(d.ready, &pjob{sj: sj, key: exp.KeyOf(sj)})
	}
	if got := len(d.takeBatchLocked()); got < 8 {
		t.Errorf("batch of %d jobs starves an 8-wide pool", got)
	}
	if got := len(d.ready); got != 24 {
		t.Errorf("%d jobs left in the queue after one batch, want 24", got)
	}
}

// TestBatchSizeCountRule pins the count rule: a share of the queue per
// active worker split stealSlack ways, at least the pool floor, at most
// the cap, never more than the queue.
func TestBatchSizeCountRule(t *testing.T) {
	for _, tc := range []struct {
		queue, active, floor, maxJobs, want int
	}{
		{queue: 100, active: 1, floor: 1, maxJobs: 64, want: 25},  // ceil(100/4)
		{queue: 100, active: 2, floor: 1, maxJobs: 64, want: 13},  // ceil(100/8)
		{queue: 13, active: 3, floor: 2, maxJobs: 64, want: 2},    // share 2 meets the floor
		{queue: 100, active: 2, floor: 16, maxJobs: 64, want: 16}, // floor beats the share of 13
		{queue: 1000, active: 1, floor: 1, maxJobs: 64, want: 64}, // cap beats the share of 250
		{queue: 5, active: 1, floor: 16, maxJobs: 64, want: 5},    // never more than the queue
		{queue: 8, active: 0, floor: 1, maxJobs: 64, want: 2},     // no active worker counts as one
		{queue: 3, active: 4, floor: 0, maxJobs: 64, want: 1},     // at least one job
		{queue: 200, active: 1, floor: 100, maxJobs: 64, want: 64},
	} {
		t.Run(fmt.Sprintf("q%d_a%d_f%d_c%d", tc.queue, tc.active, tc.floor, tc.maxJobs), func(t *testing.T) {
			if got := batchSize(tc.queue, tc.active, tc.floor, tc.maxJobs); got != tc.want {
				t.Errorf("batchSize(queue %d, active %d, floor %d, cap %d) = %d, want %d",
					tc.queue, tc.active, tc.floor, tc.maxJobs, got, tc.want)
			}
		})
	}
}
