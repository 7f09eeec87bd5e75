package serve

import (
	"fmt"

	"algspec/internal/faultinject"
	"algspec/internal/rewrite"
)

// The server's fault points, registered at compile time (DESIGN §11).
// Each names one seam where `adt load -faults` and the fault tests can
// deterministically break the service:
//
//   - serve.handler.delay  adds Rule.Delay of latency inside the
//     instrumented window of every API request (it shows up in the
//     latency histogram, exactly like a real stall would);
//   - serve.pool.delay     holds a request's normalization slot for
//     Rule.Delay before it normalizes (pressure on the requests waiting
//     for a slot, without any more engine work);
//   - serve.pool.saturate  makes admission behave as if no slot frees
//     within the deadline (the handler answers 504);
//   - serve.cache.nf.evict and serve.cache.parse.evict poison-evict on
//     Put: the computed entry is dropped — and any entry already cached
//     under the key evicted — so later requests recompute (correctness
//     must not depend on the cache retaining anything);
//   - rewrite.fuel and rewrite.cancel are threaded into the engine via
//     rewrite.WithFault and force an ErrFuel (422) or ErrCanceled (504)
//     mid-normalization, at the exact cadence of the fuel accounting.
//
// The two serve.pool.* names predate the slots that replaced the worker
// pool; they stay because fault plans and recorded runpacks arm points
// by name.
var (
	fpHandlerDelay = faultinject.Register("serve.handler.delay")
	fpPoolDelay    = faultinject.Register("serve.pool.delay")
	fpPoolSaturate = faultinject.Register("serve.pool.saturate")
	fpNFEvict      = faultinject.Register("serve.cache.nf.evict")
	fpParseEvict   = faultinject.Register("serve.cache.parse.evict")
	fpEngineFuel   = faultinject.Register("rewrite.fuel")
	fpEngineCancel = faultinject.Register("rewrite.cancel")
)

// engineFaultHook is the rewrite.WithFault hook handlers install on a
// request's fork while the registry is armed. The engine completes the
// bare *ErrFuel with real step counts; ErrCanceled is wrapped the same
// way an ended request context surfaces it.
func engineFaultHook() error {
	if _, ok := fpEngineFuel.Fire(); ok {
		return &rewrite.ErrFuel{}
	}
	if _, ok := fpEngineCancel.Fire(); ok {
		return fmt.Errorf("%w (injected fault)", rewrite.ErrCanceled)
	}
	return nil
}
