package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errShuttingDown is returned by acquire once Close has begun; the
// handler maps it to 503.
var errShuttingDown = errors.New("serve: shutting down")

// slots bounds concurrent normalizations. A cold request normalizes on
// its own handler goroutine once it holds one of the counting
// semaphore's slots; requests beyond the bound wait for a slot and give
// up the moment their context ends. The admitted group lets Close wait
// until every request it let in has written its result to the cache
// and the WAL.
type slots struct {
	sem chan struct{}

	mu       sync.Mutex
	closed   bool
	admitted sync.WaitGroup
}

func newSlots(n int) *slots {
	return &slots{sem: make(chan struct{}, n)}
}

// acquire takes a slot, waiting while all are held until either one
// frees or ctx ends (its error is returned). It returns errShuttingDown
// once close has begun. A nil error obliges the caller to release.
func (s *slots) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errShuttingDown
	}
	s.admitted.Add(1)
	s.mu.Unlock()
	if _, ok := fpPoolSaturate.Fire(); ok {
		// Injected saturation: behave as if no slot frees within the
		// deadline. Returning the context error directly (instead of
		// blocking until it expires) keeps the fault cheap and its
		// schedule deterministic; the handler maps it to 504.
		s.admitted.Done()
		return context.DeadlineExceeded
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.admitted.Done()
		return ctx.Err()
	}
	if r, ok := fpPoolDelay.Fire(); ok {
		// Injected stall while holding the slot, before any engine work:
		// pressure on the requests waiting behind it.
		time.Sleep(r.Delay)
	}
	return nil
}

// release gives back a slot taken by acquire. Call it once the
// request's result is in the cache and the WAL, so close's wait covers
// those writes.
func (s *slots) release() {
	<-s.sem
	s.admitted.Done()
}

// close stops admitting and waits until every admitted request has
// either given up waiting for a slot or released one — each bounded by
// its own deadline and fuel. This is the "drain in-flight
// normalizations" half of graceful shutdown; the HTTP half
// (http.Server.Shutdown) has already stopped new requests by the time
// the server calls this.
func (s *slots) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.admitted.Wait()
}
