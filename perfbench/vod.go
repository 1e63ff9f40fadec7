package main

import (
	"context"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threegol/internal/core"
	"threegol/internal/hls"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/scheduler"
)

const (
	// vodCells is how many cells the phones are pinned to in the
	// in-process permit plane; every cell sits below the threshold, so
	// the gate grants and the cache serves hits after the first fetch.
	vodCells = 256
	vodUtil  = 0.3
	// prebuffer is the player's start-up target (20% of the video).
	prebuffer = 0.2
	// homesPerRun is the closed loop's client count (nproc on the
	// reference host).
	homesPerRun = 2
	// setupReps is how many times a run sets up homes; setup_s is the
	// median. The permit and fleet set-ups are shorter and noisier and
	// repeat more often.
	setupReps = 5
)

// segmentRecord is what the player saw for one segment GET.
type segmentRecord struct {
	latency float64 // seconds, request to end of body
	crc     uint32
	bytes   int64
	ok      bool
}

// sessionRecord is one boosted HLS session.
type sessionRecord struct {
	quality   hls.Quality
	err       error
	segments  map[string]*segmentRecord // by segment URL path
	played    *hls.PlayerResult
	itemsDone int
	wall      float64
}

// playerTransport is the player's HTTP transport: it times each GET
// from request to end of body, checksums the body, and in a traced run
// records the GET as a span. The player issues its GETs one at a time
// and reads each body on its own goroutine, so rec needs no lock.
type playerTransport struct {
	inner http.RoundTripper
	tr    *tracer
	rec   *sessionRecord
}

func (p *playerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := wall.Now()
	name := "hls.segment"
	if hls.IsPlaylistURI(req.URL.Path) {
		name = "hls.playlist"
	}
	sp := p.tr.begin(parentOf(req), name)
	out := req
	if p.tr != nil {
		out = req.Clone(req.Context())
		eventlog.InjectHTTP(out.Header, sp.Context())
	}
	resp, err := p.inner.RoundTrip(out)
	if err != nil {
		sp.End("error", err.Error())
		return nil, err
	}
	seg := &segmentRecord{}
	if name == "hls.segment" {
		p.rec.segments[req.URL.Path] = seg
	}
	resp.Body = &checkedBody{ReadCloser: resp.Body, crc: crc32.NewIEEE(), done: func(ok bool, sum uint32, n int64) {
		seg.latency, seg.crc, seg.bytes, seg.ok = wall.Since(start).Seconds(), sum, n, ok
		sp.End()
	}}
	return resp, nil
}

// checkedBody checksums a body as it is read and reports once, at EOF
// (ok) or at a close before EOF.
type checkedBody struct {
	io.ReadCloser
	crc  hash.Hash32
	n    int64
	once sync.Once
	done func(ok bool, sum uint32, n int64)
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	_, _ = b.crc.Write(p[:n]) // hash writes never fail
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(true, b.crc.Sum32(), b.n) })
	} else if err != nil {
		b.once.Do(func() { b.done(false, 0, b.n) })
	}
	return n, err
}

func (b *checkedBody) Close() error {
	b.once.Do(func() { b.done(false, 0, b.n) })
	return b.ReadCloser.Close()
}

// vodHome is a home plus its player-facing 3GOL client proxy server,
// whose handler is replaced by a fresh core.NewVoDProxy per session.
type vodHome struct {
	*home
	addr        string
	closeServer func()
	current     atomic.Pointer[http.Handler]
	player      *http.Transport
	rng         *rand.Rand
	order       []int
}

func newVoDHome(i int, cfg runCfg, plane *permitplane.Sharded, gates *gateStats) (*vodHome, error) {
	h, err := newHome(homeSpec{index: i, seed: cfg.seed*10 + int64(i), mode: integrated, plane: plane, gates: gates, tr: cfg.tr})
	if err != nil {
		return nil, err
	}
	vh := &vodHome{home: h, player: &http.Transport{MaxIdleConnsPerHost: 4}}
	vh.rng = rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
	dispatch := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*vh.current.Load()).ServeHTTP(w, r)
	})
	notFound := http.NotFoundHandler()
	vh.current.Store(&notFound)
	coreName := func(r *http.Request) string {
		if hls.IsPlaylistURI(r.URL.Path) {
			return "core.playlist_serve"
		}
		return "core.segment_serve"
	}
	vh.addr, vh.closeServer, err = serve(cfg.tr.handler(dispatch, coreName))
	if err != nil {
		h.close()
		return nil, err
	}
	return vh, nil
}

func (vh *vodHome) close() {
	vh.closeServer()
	vh.player.CloseIdleConnections()
	vh.home.close()
}

// nextQuality cycles through the four qualities in a seeded order,
// reshuffled every cycle.
func (vh *vodHome) nextQuality(video hls.Video) hls.Quality {
	if len(vh.order) == 0 {
		vh.order = vh.rng.Perm(len(video.Qualities))
	}
	q := video.Qualities[vh.order[0]]
	vh.order = vh.order[1:]
	return q
}

// session plays one boosted HLS session through a fresh 3GOL client
// proxy: GRD over ADSL plus both phones.
func (vh *vodHome) session(cfg runCfg, originURL string, video hls.Video, q hls.Quality, sm *scheduler.Metrics) *sessionRecord {
	start := wall.Now()
	rec := &sessionRecord{quality: q, segments: make(map[string]*segmentRecord)}
	sp := cfg.tr.begin(eventlog.TraceContext{}, "bench.vod_session", "quality", q.Name)
	defer func() {
		sp.End()
		rec.wall = wall.Since(start).Seconds()
	}()

	items := newItemsDone(video.NumSegments())
	opts := scheduler.Options{
		Metrics: sm,
		OnItemDone: func(it scheduler.Item, d time.Duration) {
			if items.mark(it.ID) {
				cfg.tr.add("item_done", d.Seconds())
			}
		},
	}
	if cfg.tr != nil {
		opts.Events, opts.Trace = cfg.tr.log, sp.Context()
	}
	h, err := core.NewVoDProxy(vh.adsl, vh.routes, originURL, scheduler.Greedy, opts)
	if err != nil {
		rec.err = err
		return rec
	}
	vh.current.Store(&h)
	player := &hls.Player{
		Client:        &http.Client{Transport: &playerTransport{inner: vh.player, tr: cfg.tr, rec: rec}},
		PrebufferFrac: prebuffer,
	}
	ctx := eventlog.NewContext(context.Background(), sp.Context())
	rec.played, rec.err = player.Play(ctx, "http://"+vh.addr+"/"+video.Name+"/master.m3u8", q.Name)
	if rec.err != nil {
		return rec
	}
	// The last item's completion callback can trail the cache fill the
	// player read it from.
	select {
	case <-items.all:
	case <-time.After(10 * time.Second):
	}
	rec.itemsDone = items.count()
	return rec
}

// itemsDone counts the items of a transaction the scheduler reported
// done, each once, and closes all when every one has been.
type itemsDone struct {
	mu   sync.Mutex
	seen []bool
	done int
	all  chan struct{}
}

func newItemsDone(n int) *itemsDone {
	return &itemsDone{seen: make([]bool, n), all: make(chan struct{})}
}

// mark records item id done and reports whether it was the first report.
func (t *itemsDone) mark(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.seen) || t.seen[id] {
		return false
	}
	t.seen[id] = true
	t.done++
	if t.done == len(t.seen) {
		close(t.all)
	}
	return true
}

func (t *itemsDone) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// segmentDigests computes the origin's CRC-32 of every segment of
// every quality, by serving each from the origin handler directly.
func segmentDigests(origin *hls.Origin) map[string]uint32 {
	video := origin.Video()
	out := make(map[string]uint32)
	for _, q := range video.Qualities {
		for i := 0; i < video.NumSegments(); i++ {
			path := fmt.Sprintf("/%s/%s/seg%04d.ts", video.Name, q.Name, i)
			rr := httptest.NewRecorder()
			origin.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
			out[path] = crc32.ChecksumIEEE(rr.Body.Bytes())
		}
	}
	return out
}

// checkSession verifies one session's outputs: segment count and bytes
// equal the video's for the quality, every segment body matches the
// origin's, and the scheduler completed every item. It returns how
// many segments were delivered correctly.
func checkSession(video hls.Video, rec *sessionRecord, want map[string]uint32) (good int, problems []string) {
	n := video.NumSegments()
	if rec.err != nil {
		return 0, []string{fmt.Sprintf("vod %s session: %v", rec.quality.Name, rec.err)}
	}
	if rec.played.Segments != n || rec.played.Bytes != int64(video.TotalBytes(rec.quality)) {
		problems = append(problems, fmt.Sprintf("vod %s: played %d segments / %d bytes, want %d / %d",
			rec.quality.Name, rec.played.Segments, rec.played.Bytes, n, video.TotalBytes(rec.quality)))
	}
	if rec.itemsDone != n {
		problems = append(problems, fmt.Sprintf("vod %s: scheduler completed %d of %d items", rec.quality.Name, rec.itemsDone, n))
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/%s/%s/seg%04d.ts", video.Name, rec.quality.Name, i)
		seg := rec.segments[path]
		switch {
		case seg == nil || !seg.ok:
			problems = append(problems, fmt.Sprintf("vod %s: segment %d not delivered", rec.quality.Name, i))
		case seg.bytes != int64(video.SegmentSize(rec.quality, i)):
			problems = append(problems, fmt.Sprintf("vod %s: segment %d is %d bytes, want %d", rec.quality.Name, i, seg.bytes, video.SegmentSize(rec.quality, i)))
		case seg.crc != want[path]:
			problems = append(problems, fmt.Sprintf("vod %s: segment %d body differs from the origin's", rec.quality.Name, i))
		default:
			good++
		}
	}
	return good, problems
}

func runVoD(cfg runCfg) (*outcome, error) {
	o := &outcome{named: make(map[string]float64)}
	video := hls.BipBop()
	origin := hls.NewOrigin(video)
	originAddr, stopOrigin, err := serve(cfg.tr.handler(origin, constName("hls.origin_serve")))
	if err != nil {
		return nil, err
	}
	defer stopOrigin()
	originURL := "http://" + originAddr
	plane := permitplane.New(permitplane.Config{
		Shards: 4, Threshold: permit.DefaultThreshold, TTL: permit.DefaultTTL,
		Utilization: func(string) float64 { return vodUtil },
	})
	defer plane.Close()
	gates := &gateStats{}

	// Set-up: build both homes until discovery converges, then one
	// warm-up session each; repeated, keeping the last homes.
	var homes []*vodHome
	var converge sample
	closeAll := func() {
		for _, h := range homes {
			h.close()
		}
		homes = nil
	}
	defer closeAll()
	for rep := 0; rep < setupReps; rep++ {
		closeAll()
		t0 := wall.Now()
		for i := 0; i < homesPerRun; i++ {
			vh, err := newVoDHome(i, cfg, plane, gates)
			if err != nil {
				return nil, err
			}
			homes = append(homes, vh)
			converge = append(converge, vh.converge.Seconds())
		}
		for _, vh := range homes {
			if rec := vh.session(runCfg{}, originURL, video, video.Qualities[0], nil); rec.err != nil {
				return nil, fmt.Errorf("warm-up session: %w", rec.err)
			}
		}
		o.setup = append(o.setup, wall.Since(t0).Seconds())
	}

	var reg *obs.Registry
	var sm *scheduler.Metrics
	if cfg.tr != nil {
		reg = obs.NewRegistry()
		sm = scheduler.NewMetrics(reg)
	}
	runtime.GC() // every window starts from a collected heap
	cfg.tr.mark()
	admits0, fetches0 := gates.admits.Load(), gates.fetches.Load()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	start := wall.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	recs := make([][]*sessionRecord, len(homes))
	var wg sync.WaitGroup
	for i, vh := range homes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wall.Now().Before(deadline) {
				recs[i] = append(recs[i], vh.session(cfg, originURL, video, vh.nextQuality(video), sm))
			}
		}()
	}
	wg.Wait()
	wall := wall.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	rt1 := readRuntime()

	want := segmentDigests(origin)
	var bytes int64
	var startup, download, segs sample
	walls := make(map[string]sample)
	sessions := 0
	for _, hr := range recs {
		for _, rec := range hr {
			sessions++
			o.attempted += int64(video.NumSegments())
			good, problems := checkSession(video, rec, want)
			o.failed += int64(video.NumSegments() - good)
			o.problems = append(o.problems, problems...)
			o.roots = append(o.roots, rec.wall)
			if rec.err != nil {
				continue
			}
			bytes += rec.played.Bytes
			startup = append(startup, rec.played.PrebufferTime.Seconds()*timeScale)
			download = append(download, rec.played.TotalTime.Seconds()*timeScale)
			q := rec.quality.Name
			walls[q] = append(walls[q], rec.wall)
			for _, seg := range rec.segments {
				if seg.ok {
					segs = append(segs, seg.latency)
				}
			}
		}
	}
	mbit := float64(bytes) * 8 / 1e6
	// Goodput and CPU per Mbit over the window; session time as per-quality medians averaged over
	// the qualities, so neither a burst of host noise nor the qualities
	// of a run's last sessions move it.
	o.workPerS = ratio(mbit, wall)
	o.cpuPerWork = ratio(cpu*1e6, mbit)
	o.opP50ms = meanOfMedians(walls) * 1e3
	tq, tail, ok := segs.tail()
	o.named["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	o.named["cpu_s_per_gb"] = ratio(cpu, float64(bytes)/1e9)
	o.named["vod_startup_s"] = startup.median()
	o.named["vod_download_s"] = download.median()
	o.named["vod_segment_p50_ms"] = segs.median() * 1e3
	if ok {
		o.named["vod_segment_tail_ms"] = tail * 1e3
	}
	o.note("vod: closed loop, %d homes, %d sessions, %d segment GETs; segment tail is p%g; emulated times are medians over sessions",
		homesPerRun, sessions, len(segs), 100*tq)

	if cfg.tr != nil {
		o.layers = relayLayers(cfg.tr, reg, relayWindow{
			wall: wall, payloadMB: float64(bytes) / 1e6, tx: sessions, homes: len(homes),
			converge: converge, before: rt0, after: rt1,
			admits:  float64(gates.admits.Load() - admits0),
			fetches: float64(gates.fetches.Load() - fetches0),
		})
	}
	return o, nil
}
