package engine

import (
	"errors"
	"fmt"
	"time"
)

// RetryFetch runs fetch with bounded retry and doubling backoff — the
// shuffle-fetch retry discipline shared by the local runtime
// (FetchShuffleChunks) and the distributed executor's network fetches.
// A *MapOutputMissingError returns immediately: missing map output is
// not transient, lineage must repair it. Any other error is treated as
// transient; onRetry (may be nil) observes each retry before its backoff
// sleep. After attempts failures the last error is returned unwrapped
// so callers can add their own context.
func RetryFetch(attempts int, backoff time.Duration, onRetry func(attempt int, backoff time.Duration, last error), fetch func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if onRetry != nil {
				onRetry(attempt, backoff, last)
			}
			time.Sleep(backoff)
			backoff *= 2
		}
		err := fetch()
		if err == nil {
			return nil
		}
		var miss *MapOutputMissingError
		if errors.As(err, &miss) {
			return err
		}
		last = err
	}
	return last
}

// RunStageRecovering runs a stage under a bounded lineage-repair loop:
// when run fails with a *MapOutputMissingError (an executor loss
// invalidated map output a fetch needed), repair is invoked to
// re-materialize the missing partitions and run is retried, at most
// maxRecoveries times. Any other failure — including a repair failure —
// returns as-is. This is the driver-side recovery discipline shared by
// the rdd lineage layer and the distributed driver.
func RunStageRecovering(maxRecoveries int, run func() error, repair func(miss *MapOutputMissingError) error) error {
	if maxRecoveries < 0 {
		maxRecoveries = 0
	}
	var err error
	for attempt := 0; attempt <= maxRecoveries; attempt++ {
		err = run()
		if err == nil {
			return nil
		}
		var miss *MapOutputMissingError
		if !errors.As(err, &miss) {
			return err
		}
		if rerr := repair(miss); rerr != nil {
			return rerr
		}
	}
	return fmt.Errorf("engine: stage still failing after %d lineage recoveries: %w", maxRecoveries, err)
}
