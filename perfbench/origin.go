package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nerve/internal/codec"
	"nerve/internal/httpstream"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// Both origin workloads serve the same source in half-second chunks,
// origin-hot at hotW×hotH and origin-live at the smaller liveW×liveH. At
// 48×32 one chunk's segment encodes in about 7 ms per rate (17 ms at
// 96×64) and its codes in about 32 ms, so a rate's P-frame chain catches
// up several chunks in tens of ms: a run's op_p99_ms then rests on many
// edge advances rather than on its few longest catch-ups.
const (
	hotW, hotH   = 96, 64
	liveW, liveH = 48, 32
	chunkSeconds = 0.5
	// numRates is the size of the ladder every origin offers.
	numRates = len(ladderKbps)
	// connections is how many client connections carry the load: one per
	// CPU of the two-core box the benchmark was sized on.
	connections = 2
	// hotChunks is the origin-hot stream length; every payload of it is
	// cached before measurement.
	hotChunks = 8
	// Live edge of origin-live: it starts at liveStartEdge and advances one
	// chunk per chunkSeconds. Viewers arrive as a Poisson process of
	// livePerSecond and ask for the edge or up to liveMaxBack chunks
	// behind it.
	liveStartEdge = 3
	livePerSecond = 120
	liveMaxBack   = 2
	// liveWindowChunks is how many recent chunks (all rates and codes)
	// each node's caches hold, 8 s of stream. A viewer must never ask
	// for an evicted chunk, which would replay its rate from chunk 0; the
	// window covers liveMaxBack plus seconds of load-generator lateness.
	liveWindowChunks = 16
	// liveChunkBytes bounds one chunk's payloads (every rate plus codes)
	// at liveW×liveH, about 33 KB; it sizes the caches to the window.
	liveChunkBytes = 48 << 10
	// psnrFloorOriginDB is the least mean quality of the served sample.
	psnrFloorOriginDB = 25
)

var ladderKbps = [...]int{300, 800, 1500}

func originConfig(w, h, chunks int) httpstream.ServerConfig {
	return httpstream.ServerConfig{
		W: w, H: h,
		ChunkSeconds: chunkSeconds,
		Chunks:       chunks,
		Rates:        ladderKbps[:],
		Source:       video.NewGenerator(gamePlay, playContent),
	}
}

// ledger remembers the checksum and length of the first copy of every
// payload key fetched in a run; every later copy, from any node and any
// rebuild, must match it byte for byte.
type ledger struct {
	mu   sync.Mutex
	seen map[string]payloadSum
}

type payloadSum struct {
	crc uint32
	n   int
}

func newLedger() *ledger { return &ledger{seen: map[string]payloadSum{}} }

// check settles one fetched copy of key: the first copy is recorded, and a
// later one must match it.
func (l *ledger) check(key string, sum payloadSum) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, ok := l.seen[key]
	if !ok {
		l.seen[key] = sum
		return true
	}
	return first == sum
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadKey names the payload a request asks for, or "" for a request
// that carries none (the manifest).
func payloadKey(u *url.URL) string {
	q := u.Query()
	switch u.Path {
	case "/codes":
		return "codes:" + q.Get("n")
	case "/segment":
		return "seg:" + q.Get("rate") + ":" + q.Get("n")
	}
	return ""
}

// benchTransport is the RoundTripper of one load connection. It checks
// every payload against the ledger and, in a traced phase, times each
// fetch up to body close and tags the request with its operation's ids so
// that server-side spans join it. One worker goroutine owns it.
type benchTransport struct {
	base   *http.Transport
	ledger *ledger
	tr     *tracer

	rid, parent int64 // the operation in flight, set by the worker
	codes, seg  samples
	mismatches  int
	segKeys     map[string]bool // segment keys fetched in this phase
}

func newBenchTransport(l *ledger, base *http.Transport) *benchTransport {
	return &benchTransport{base: base, ledger: l}
}

// oneConn returns an HTTP/1.1 transport that holds one connection: a
// fetcher on it sends one request at a time.
func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
}

// multiplexedConn returns a transport that speaks HTTP/2 without TLS, so
// requests from any number of fetchers share one connection per host
// without queueing behind one another.
func multiplexedConn() *http.Transport {
	t := &http.Transport{Protocols: new(http.Protocols)}
	t.Protocols.SetUnencryptedHTTP2(true)
	return t
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := payloadKey(req.URL)
	start := time.Now()
	id := t.tr.newID()
	if t.tr != nil && key != "" {
		req = req.Clone(req.Context())
		q := req.URL.Query()
		q.Set("bench_rid", strconv.FormatInt(t.rid, 10))
		q.Set("bench_span", strconv.FormatInt(id, 10))
		req.URL.RawQuery = q.Encode()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || key == "" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	resp.Body = &checkedBody{ReadCloser: resp.Body, t: t, key: key, id: id, start: start}
	return resp, nil
}

// checkedBody checksums a payload as the client reads it and settles it
// with the ledger on close.
type checkedBody struct {
	io.ReadCloser
	t     *benchTransport
	key   string
	id    int64
	start time.Time
	sum   payloadSum
	eof   bool
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sum.crc = crc32.Update(b.sum.crc, castagnoli, p[:n])
	b.sum.n += n
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *checkedBody) Close() error {
	err := b.ReadCloser.Close()
	t := b.t
	if b.eof {
		if !t.ledger.check(b.key, b.sum) {
			t.mismatches++
			fmt.Fprintf(os.Stderr, "perfbench: %s differs from its first copy\n", b.key)
		}
		if b.key[0] == 's' {
			t.segKeys[b.key] = true
		}
	}
	if t.tr != nil {
		end := time.Now()
		name := "httpstream.client.codes"
		if b.key[0] == 's' {
			name = "httpstream.client.segment"
			t.seg = append(t.seg, ms(end.Sub(b.start)))
		} else {
			t.codes = append(t.codes, ms(end.Sub(b.start)))
		}
		t.tr.record(b.id, t.parent, t.rid, name, b.start, end)
	}
	return err
}

// beginPhase points the transport at a phase's tracer and clears its
// per-phase figures.
func (t *benchTransport) beginPhase(tr *tracer) {
	t.tr = tr
	t.codes, t.seg = nil, nil
	t.segKeys = map[string]bool{}
}

// timedHandler wraps a server's handler; in a traced phase it times every
// payload request, keeping requests that arrive over a cluster peer hop
// apart.
type timedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]

	mu           sync.Mutex
	client, peer samples
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil || payloadKey(r.URL) == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	q := r.URL.Query()
	rid, _ := strconv.ParseInt(q.Get("bench_rid"), 10, 64)
	parent, _ := strconv.ParseInt(q.Get("bench_span"), 10, 64)
	peer := r.Header.Get("X-Nerve-Peer") != ""
	name := "httpstream.server.handler"
	if peer {
		name = "cluster.peer_serve"
	}
	tr.record(tr.newID(), parent, rid, name, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	if peer {
		t.peer = append(t.peer, ms(end.Sub(start)))
	} else {
		t.client = append(t.client, ms(end.Sub(start)))
	}
}

func (t *timedHandler) beginPhase(tr *tracer) {
	t.mu.Lock()
	t.client, t.peer = nil, nil
	t.mu.Unlock()
	t.tr.Store(tr)
}

// endPhase stops timing and keeps the phase's samples for reading.
func (t *timedHandler) endPhase() { t.tr.Store(nil) }

// loopback serves h on a fresh loopback listener.
type loopback struct {
	url string
	srv *http.Server
	ln  net.Listener
}

// listen opens a loopback listener on port, or on any free port when port
// is 0.
func listen(port int) (*loopback, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, err
	}
	return &loopback{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

// serve serves h over HTTP/1.1 and, for multiplexed fetchers, HTTP/2
// without TLS.
func (l *loopback) serve(h http.Handler) {
	l.srv = &http.Server{Handler: h, Protocols: new(http.Protocols)}
	l.srv.Protocols.SetHTTP1(true)
	l.srv.Protocols.SetUnencryptedHTTP2(true)
	go func() { _ = l.srv.Serve(l.ln) }() // returns ErrServerClosed on close
}

func (l *loopback) close() {
	if l.srv != nil {
		_ = l.srv.Close() // a loopback test server: nothing to flush
	} else {
		_ = l.ln.Close()
	}
}

// fetcher is a fetch-only client that makes one request at a time, over
// its own connection (oneConn) or one it shares (multiplexedConn).
type fetcher struct {
	cl *httpstream.Client
	tp *benchTransport
}

func newFetcher(base string, l *ledger, hc *http.Transport) (*fetcher, error) {
	tp := newBenchTransport(l, hc)
	tp.beginPhase(nil)
	cl, err := httpstream.NewFetchClient(base, &http.Client{Transport: tp})
	if err != nil {
		return nil, err
	}
	return &fetcher{cl: cl, tp: tp}, nil
}

// fetch runs one FetchChunk as operation rid and reports whether it
// succeeded: no error, not degraded, and every payload matched the ledger.
func (f *fetcher) fetch(tr *tracer, rid int64, n, rate int) bool {
	f.tp.rid, f.tp.parent = rid, tr.newID()
	before := f.tp.mismatches
	t0 := time.Now()
	res, err := f.cl.FetchChunk(n, rate)
	tr.record(f.tp.parent, 0, rid, "bench.fetch_chunk", t0, time.Now())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: chunk %d rate %d: %v\n", n, rate, err)
		return false
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "perfbench: chunk %d rate %d degraded: %s\n", n, rate, res.DegradedReason)
		return false
	}
	return f.tp.mismatches == before
}

// clientStats sums the fetchers' retry and degradation counters.
func clientStats(fs []*fetcher) (retries, degraded int64) {
	for _, f := range fs {
		retries += f.cl.Retries()
		degraded += f.cl.DegradedChunks()
	}
	return retries, degraded
}

// fetchLayers reports the client-side and handler-side per-layer figures
// of a traced phase.
func fetchLayers(layers map[string]float64, fs []*fetcher, h []*timedHandler) (segKeys int) {
	var codes, seg, handler, peer samples
	keys := map[string]bool{}
	for _, f := range fs {
		codes = append(codes, f.tp.codes...)
		seg = append(seg, f.tp.seg...)
		for k := range f.tp.segKeys {
			keys[k] = true
		}
	}
	for _, t := range h {
		t.mu.Lock()
		handler = append(handler, t.client...)
		peer = append(peer, t.peer...)
		t.mu.Unlock()
	}
	putQuantiles(layers, "httpstream.client.codes_ms", codes, 99)
	putQuantiles(layers, "httpstream.client.segment_ms", seg, 99)
	putQuantiles(layers, "httpstream.server.handler_ms", handler, 99)
	putQuantiles(layers, "cluster.peer_serve_ms", peer, 99)
	return len(keys)
}

// scoreSegments fetches the segments of chunks [0, chunks) at every rate,
// decodes them and returns their mean PSNR against the source: the quality
// the origin actually serves.
func scoreSegments(f *fetcher, cfg httpstream.ServerConfig, chunks int) (float64, error) {
	fpc := int(chunkSeconds * video.FPS)
	var all samples
	for n := 0; n < chunks; n++ {
		for rate := range ladderKbps {
			raw, err := f.cl.Fetch(fmt.Sprintf("/segment?rate=%d&n=%d", rate, n))
			if err != nil {
				return 0, err
			}
			dec := codec.NewDecoder(codec.Config{W: cfg.W, H: cfg.H})
			for i := 0; len(raw) > 0; i++ {
				if len(raw) < 4 || int(binary.BigEndian.Uint32(raw)) > len(raw)-4 {
					return 0, fmt.Errorf("segment %d rate %d: truncated frame record", n, rate)
				}
				size := int(binary.BigEndian.Uint32(raw))
				var ef codec.EncodedFrame
				if err := ef.UnmarshalBinary(raw[4 : 4+size]); err != nil {
					return 0, err
				}
				raw = raw[4+size:]
				dr, err := dec.Decode(&ef, nil)
				if err != nil {
					return 0, err
				}
				all = append(all, metrics.PSNR(cfg.Source.Render(n*fpc+i, cfg.W, cfg.H), dr.Frame))
				vmath.Put(dr.Mask)
			}
		}
	}
	q := all.mean()
	if q < psnrFloorOriginDB {
		return q, fmt.Errorf("served segments: mean PSNR %.2f dB under the %d dB floor", q, psnrFloorOriginDB)
	}
	return q, nil
}

// closedLoop runs one worker per fetcher until d has passed and, when the
// phase asks for it, minOps operations have been attempted.
func closedLoop(ph *phase, fs []*fetcher, op func(f *fetcher, i int64) bool) error {
	var next atomic.Int64
	recs := make([][]opRecord, len(fs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range fs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= ph.d && (int(next.Load()) >= ph.minOps || el >= 3*ph.d) {
					return
				}
				i := next.Add(1) - 1
				t0 := time.Now()
				ok := op(fs[w], i)
				end := time.Now()
				recs[w] = append(recs[w], opRecord{done: end.Sub(start), ms: ms(end.Sub(t0)), ok: ok})
			}
		}(w)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.merge(recs)
	if len(ph.ops) < ph.minOps {
		return errTooFewOps(len(ph.ops), ph.elapsed)
	}
	return nil
}

// originHot is one warmed origin read by a closed loop: every request is a
// cache hit, so it measures the read path alone.
type originHot struct {
	picks  []pick
	ledger *ledger

	lb       *loopback
	srv      *httpstream.Server
	handler  *timedHandler
	fetchers []*fetcher

	quality    float64
	qualityErr error
	planes     int64 // plane allocations over all phases
}

func newOriginHot(picks []pick) *originHot {
	return &originHot{picks: picks, ledger: newLedger()}
}

func (o *originHot) perFrame() bool { return false }

func (o *originHot) close() {
	if o.lb != nil {
		o.lb.close()
		o.lb = nil
	}
}

// setup starts the origin and its two client connections and warms every
// payload into the cache.
func (o *originHot) setup(tr *tracer) (map[string]float64, error) {
	o.close()
	srv, err := httpstream.NewServer(originConfig(hotW, hotH, hotChunks))
	if err != nil {
		return nil, err
	}
	lb, err := listen(0)
	if err != nil {
		return nil, err
	}
	o.lb, o.srv, o.handler = lb, srv, &timedHandler{h: srv}
	lb.serve(o.handler)
	o.fetchers = nil
	for i := 0; i < connections; i++ {
		f, err := newFetcher(lb.url, o.ledger, oneConn())
		if err != nil {
			return nil, err
		}
		o.fetchers = append(o.fetchers, f)
	}
	for n := 0; n < hotChunks; n++ {
		for rate := range ladderKbps {
			if !o.fetchers[0].fetch(tr, -1, n, rate) {
				return nil, fmt.Errorf("warm-up fetch of chunk %d rate %d failed", n, rate)
			}
		}
	}
	return nil, nil
}

func (o *originHot) measure(ph *phase) error {
	if o.quality == 0 {
		o.quality, o.qualityErr = scoreSegments(o.fetchers[0], originConfig(hotW, hotH, 0), hotChunks)
	}
	for _, f := range o.fetchers {
		f.tp.beginPhase(ph.tr)
	}
	o.handler.beginPhase(ph.tr)
	cache0, enc0 := o.srv.CacheStats(), o.srv.Encodes()
	retries0, degraded0 := clientStats(o.fetchers)
	planes0 := vmath.PlaneAllocs()
	err := closedLoop(ph, o.fetchers, func(f *fetcher, i int64) bool {
		pk := o.picks[i%int64(len(o.picks))]
		return f.fetch(ph.tr, i, pk.chunk, pk.rate)
	})
	o.planes += vmath.PlaneAllocs() - planes0
	o.handler.endPhase()
	if err != nil || ph.tr == nil {
		return err
	}
	segKeys := fetchLayers(ph.layers, o.fetchers, []*timedHandler{o.handler})
	cache := o.srv.CacheStats()
	originLayers(ph.layers, cache.Hits-cache0.Hits, cache.Misses-cache0.Misses, cache.Evictions-cache0.Evictions,
		o.srv.Encodes()-enc0, segKeys)
	retries, degraded := clientStats(o.fetchers)
	ph.layers["httpstream.client.retries"] = float64(retries - retries0)
	ph.layers["httpstream.client.degraded"] = float64(degraded - degraded0)
	return nil
}

// originLayers reports the origin build and cache figures of a phase.
func originLayers(layers map[string]float64, hits, misses, evictions, encodes int64, segKeys int) {
	layers["httpstream.server.encodes"] = float64(encodes)
	if encodes > 0 {
		layers["httpstream.encode_useful_ratio"] = float64(segKeys) / float64(encodes)
	}
	if hits+misses > 0 {
		layers["httpstream.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	layers["httpstream.cache.evictions"] = float64(evictions)
}

func (o *originHot) finish(map[string]float64) (float64, error) {
	var errs []error
	if o.qualityErr != nil {
		errs = append(errs, o.qualityErr)
	}
	if o.planes != 0 {
		errs = append(errs, fmt.Errorf("the warmed read path allocated %d planes", o.planes))
	}
	return o.quality, errors.Join(errs...)
}
