package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"nerve/internal/cluster"
	"nerve/internal/vmath"
)

// originLive is a two-node origin cluster under an open loop of viewers at
// the live edge: new chunks are built on first request, evicted as the
// window moves on, and half the requests take a peer hop to their owner.
//
// Each node has one client connection, multiplexed, so a viewer waits for
// the chunk it asks for and not for other viewers' requests ahead of it
// on the connection. A request is sent at its due time by a fetcher free
// from its node's pool.
type originLive struct {
	schedule []arrival
	ledger   *ledger

	lbs      []*loopback
	nodes    []*cluster.Node
	handlers []*timedHandler
	conns    []*http.Transport // conns[i] carries nodes[i]'s requests
	fetchers []*fetcher        // every fetcher, node by node
	pools    []chan *fetcher   // pools[i]: the free fetchers of nodes[i]

	// The live clock: arrival due times count from clock, set when the
	// first phase starts; next is the first arrival not yet sent.
	clock time.Time
	until time.Duration
	next  int

	quality    float64
	qualityErr error
}

// liveProcs is the GOMAXPROCS origin-live runs with. Both nodes start
// their builds when the edge advances; on two vCPUs of a shared host the
// second one comes and goes, and with it whether those builds overlap, so
// with two Ps the waits for them, and op_p99_ms, moved by a third from run
// to run. With one P they queue on one core and move with its speed alone.
const liveProcs = 1

func newOriginLive(schedule []arrival) *originLive {
	runtime.GOMAXPROCS(liveProcs)
	return &originLive{schedule: schedule, ledger: newLedger()}
}

func (o *originLive) perFrame() bool { return false }

// livePoolSize is how many requests to one node may be in flight at once.
// More than this wait for a fetcher to come free, which shows as
// bench.gen_lag_ms.
const livePoolSize = 32

func (o *originLive) close() {
	for _, lb := range o.lbs {
		lb.close()
	}
	for _, c := range o.conns {
		c.CloseIdleConnections()
	}
	o.lbs, o.conns = nil, nil
}

// setup starts both nodes and one client connection to each, and builds
// the stream up to the starting live edge through both.
func (o *originLive) setup(tr *tracer) (map[string]float64, error) {
	o.close()
	var peers []string
	for i := 0; i < connections; i++ {
		lb, err := listenNode(i)
		if err != nil {
			return nil, err
		}
		o.lbs = append(o.lbs, lb)
		peers = append(peers, lb.url)
	}
	cfg := originConfig(liveW, liveH, 1<<30) // live: the stream never ends
	cfg.Live = true
	cfg.CacheBytes = liveWindowChunks * liveChunkBytes
	o.nodes, o.handlers, o.fetchers, o.pools = nil, nil, nil, nil
	for i, lb := range o.lbs {
		n, err := cluster.NewNode(cluster.Config{
			Self: lb.url, Peers: peers, Origin: cfg,
			PeerCacheBytes: liveWindowChunks * liveChunkBytes,
		})
		if err != nil {
			return nil, err
		}
		h := &timedHandler{h: n}
		lb.serve(h)
		o.nodes = append(o.nodes, n)
		o.handlers = append(o.handlers, h)
		conn := multiplexedConn()
		o.conns = append(o.conns, conn)
		pool := make(chan *fetcher, livePoolSize)
		for k := 0; k < livePoolSize; k++ {
			f, err := newFetcher(peers[i], o.ledger, conn)
			if err != nil {
				return nil, err
			}
			o.fetchers = append(o.fetchers, f)
			pool <- f
		}
		o.pools = append(o.pools, pool)
	}
	for n := 0; n <= liveStartEdge; n++ {
		for rate := range ladderKbps {
			for i := range o.nodes {
				if !o.fetchers[i*livePoolSize].fetch(tr, -1, n, rate) {
					return nil, fmt.Errorf("warm-up fetch of chunk %d rate %d failed", n, rate)
				}
			}
		}
	}
	o.clock, o.until, o.next = time.Time{}, 0, 0
	return nil, nil
}

// liveBasePort is the first loopback port the nodes try. Node URLs are
// the cluster's ownership keys, so fixed ports give every run the same
// split of chunks between owners, and with it the same replay work.
const liveBasePort = 47610

// listenNode opens node i's listener on its fixed port, or on the next
// free one, saying so, when that port is taken.
func listenNode(i int) (*loopback, error) {
	for p := liveBasePort + 2*i; p < liveBasePort+100; p += 2 * connections {
		lb, err := listen(p)
		if err == nil {
			return lb, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: node %d: %v; chunk ownership will differ from other runs\n", i, err)
	}
	return nil, fmt.Errorf("node %d: no free port from %d", i, liveBasePort)
}

// edge is the newest chunk at time due after the clock started.
func edge(due time.Duration) int {
	return liveStartEdge + int(due/time.Duration(chunkSeconds*float64(time.Second)))
}

// measure sends the phase's share of the precomputed arrivals, each to its
// node at its due time or, if all the node's fetchers are busy, as soon as
// one is free. Latency counts from the due time, so a stall shows in every
// request queued behind it; gen lag is how late the request actually went
// out.
func (o *originLive) measure(ph *phase) error {
	if o.clock.IsZero() {
		// Score the warm-up chunks while they are still in the window.
		o.quality, o.qualityErr = scoreSegments(o.fetchers[0], originConfig(liveW, liveH, 0), liveStartEdge+1)
		o.clock = time.Now()
	}
	for _, f := range o.fetchers {
		f.tp.beginPhase(ph.tr)
	}
	for _, h := range o.handlers {
		h.beginPhase(ph.tr)
	}
	cache0, enc0, stats0 := o.counters()
	retries0, degraded0 := clientStats(o.fetchers)
	planes0 := vmath.PlaneAllocs()

	o.until += ph.d
	first := o.next
	for o.next < len(o.schedule) && o.schedule[o.next].due < o.until {
		o.next++
	}
	arrivals := o.schedule[first:o.next]
	var (
		mu   sync.Mutex
		recs []opRecord
		lags samples
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w, pool := range o.pools {
		wg.Add(1)
		go func(w int, pool chan *fetcher) { // node w's dispatcher
			defer wg.Done()
			for i := w - first%len(o.pools); i < len(arrivals); i += len(o.pools) {
				if i < 0 {
					continue
				}
				a := arrivals[i]
				due := o.clock.Add(a.due)
				time.Sleep(time.Until(due))
				f := <-pool
				sent := time.Now()
				wg.Add(1)
				go func(rid int64, n, rate int) {
					defer wg.Done()
					ok := f.fetch(ph.tr, rid, n, rate)
					end := time.Now()
					pool <- f
					mu.Lock()
					recs = append(recs, opRecord{done: end.Sub(start), ms: ms(end.Sub(due)), ok: ok})
					lags = append(lags, ms(sent.Sub(due)))
					mu.Unlock()
				}(int64(first+i), edge(a.due)-a.back, a.rate)
			}
		}(w, pool)
	}
	wg.Wait()
	// The phase lasts its share of the schedule, however early the last
	// arrival finished.
	if el := time.Since(start); el > ph.d {
		ph.elapsed = el
	} else {
		ph.elapsed = ph.d
	}
	ph.merge([][]opRecord{recs})
	for _, h := range o.handlers {
		h.endPhase()
	}
	if ph.tr == nil {
		return nil
	}
	ph.layers["vmath.plane_allocs"] = float64(vmath.PlaneAllocs() - planes0)
	segKeys := fetchLayers(ph.layers, o.fetchers, o.handlers)
	putQuantiles(ph.layers, "bench.gen_lag_ms", lags, 99)
	cache, enc, stats := o.counters()
	originLayers(ph.layers, cache.Hits-cache0.Hits, cache.Misses-cache0.Misses, cache.Evictions-cache0.Evictions,
		enc-enc0, segKeys)
	ph.layers["cluster.peer_fetches"] = float64(stats.PeerFetches - stats0.PeerFetches)
	ph.layers["cluster.local_serves"] = float64(stats.LocalServes - stats0.LocalServes)
	ph.layers["cluster.peer_errors"] = float64(stats.PeerErrors - stats0.PeerErrors)
	retries, degraded := clientStats(o.fetchers)
	ph.layers["httpstream.client.retries"] = float64(retries - retries0)
	ph.layers["httpstream.client.degraded"] = float64(degraded - degraded0)
	return nil
}

// counters sums the nodes' origin cache, encode and cluster counters.
func (o *originLive) counters() (cache struct{ Hits, Misses, Evictions int64 }, encodes int64, stats cluster.Stats) {
	for _, n := range o.nodes {
		c := n.Origin().CacheStats()
		cache.Hits += c.Hits
		cache.Misses += c.Misses
		cache.Evictions += c.Evictions
		encodes += n.Origin().Encodes()
		stats.Add(n.Stats())
	}
	return cache, encodes, stats
}

func (o *originLive) finish(map[string]float64) (float64, error) {
	return o.quality, o.qualityErr
}
