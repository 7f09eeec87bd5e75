package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"

	"algspec/internal/metrics"
	"algspec/internal/serve"
)

// Local is an in-process cluster: N serve replicas plus a router, each
// on its own loopback listener. It exists for `adt load -replicas N`,
// the cluster benchmarks and the CI smoke test — one process owns every
// counter in the system, which is what makes exact reconciliation
// meaningful.
type Local struct {
	Router      *Router
	RouterSrv   *httptest.Server
	Replicas    []*serve.Server
	ReplicaSrvs []*httptest.Server
}

// StartLocal boots n replicas with the given serve config and a router
// over them. rcfg.ReplicaURLs is filled in by the boot; the other
// router knobs are honored.
func StartLocal(n int, scfg serve.Config, rcfg Config, extraSources ...string) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 replica, got %d", n)
	}
	l := &Local{}
	for i := 0; i < n; i++ {
		srv, err := serve.New(scfg, extraSources...)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.Replicas = append(l.Replicas, srv)
		l.ReplicaSrvs = append(l.ReplicaSrvs, httptest.NewServer(srv.Handler()))
	}
	rcfg.ReplicaURLs = nil
	for _, ts := range l.ReplicaSrvs {
		rcfg.ReplicaURLs = append(rcfg.ReplicaURLs, ts.URL)
	}
	rt, err := NewRouter(rcfg, extraSources...)
	if err != nil {
		l.Close()
		return nil, err
	}
	l.Router = rt
	l.RouterSrv = httptest.NewServer(rt.Handler())
	return l, nil
}

// URL is the router's base URL — the address clients load against.
func (l *Local) URL() string { return l.RouterSrv.URL }

// Close tears the cluster down: router first (no new forwards), then
// each replica.
func (l *Local) Close() {
	if l.RouterSrv != nil {
		l.RouterSrv.Close()
	}
	if l.Router != nil {
		l.Router.Close()
	}
	for _, ts := range l.ReplicaSrvs {
		ts.Close()
	}
	for _, srv := range l.Replicas {
		srv.Close()
	}
}

// ShardStat is one replica's side of the reconciliation, with its cache
// counters for the load report.
type ShardStat struct {
	Shard       int
	Forwarded   int64 // router's claim
	Served      int64 // replica's own adt_requests_total sum
	CacheHits   int64
	CacheMisses int64
}

// Reconcile scrapes the router and every replica and checks the books
// at the shard boundary: the router's adt_router_forwarded_total for
// shard i must equal replica i's total adt_requests_total — every
// proxied request was counted by exactly the replica that answered it,
// no loss, no phantom. (The client↔router level is loadgen's existing
// reconciliation, run against the router URL.) Transport errors void
// the guarantee and are reported as discrepancies.
func (l *Local) Reconcile() (stats []ShardStat, problems []string, err error) {
	routerPage, err := metrics.Scrape(http.DefaultClient, l.RouterSrv.URL+"/metrics")
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: scraping router metrics: %w", err)
	}
	forwarded := map[string]int64{}
	for _, s := range routerPage.Samples("adt_router_forwarded_total") {
		forwarded[s.Labels["shard"]] = int64(s.Value)
	}
	for _, s := range routerPage.Samples("adt_router_forward_errors_total") {
		if s.Value != 0 {
			problems = append(problems,
				fmt.Sprintf("shard %s: %d transport error(s) — replica-side accounting unverifiable", s.Labels["shard"], int64(s.Value)))
		}
	}
	for i, ts := range l.ReplicaSrvs {
		page, err := metrics.Scrape(http.DefaultClient, ts.URL+"/metrics")
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: scraping replica %d metrics: %w", i, err)
		}
		hits, _ := page.Value("adt_cache_hits_total", nil)
		misses, _ := page.Value("adt_cache_misses_total", nil)
		st := ShardStat{Shard: i, Forwarded: forwarded[strconv.Itoa(i)], CacheHits: int64(hits), CacheMisses: int64(misses)}
		for _, s := range page.Samples("adt_requests_total") {
			st.Served += int64(s.Value)
		}
		stats = append(stats, st)
		if st.Served != st.Forwarded {
			problems = append(problems,
				fmt.Sprintf("shard %d: router forwarded %d request(s), replica counted %d", i, st.Forwarded, st.Served))
		}
	}
	return stats, problems, nil
}
