package service

import (
	"context"
	"errors"
	"sync"
)

// FanOut runs fn(i) for every i below n concurrently and returns once all
// have returned: the one fan-out a node's peer deliveries and a
// coordinator's per-shard calls share. A failure calls cancel, when it is
// non-nil — the caller's way to stop the others, whose work runs under the
// context cancel ends — so a request doomed by one peer does not keep the
// rest busy. The error reported is the first, by index, that is not just
// that cancellation's fallout (context.Canceled), or every failure joined
// when each one is. A best-effort caller's fn swallows its own errors.
func FanOut(n int, cancel context.CancelFunc, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = fn(i); errs[i] != nil && cancel != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return errors.Join(errs...)
}
