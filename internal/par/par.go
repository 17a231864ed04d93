// Package par runs independent jobs on a bounded pool of workers.
package par

import (
	"runtime"
	"sync"
)

// Run executes jobs 0..n-1 on up to GOMAXPROCS workers and returns the
// first error. Callers give each job its own index-ordered result slot,
// so the worker count never changes any output.
func Run(n int, job func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
