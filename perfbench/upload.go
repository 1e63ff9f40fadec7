package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"threegol/internal/core"
	"threegol/internal/obs"
	"threegol/internal/obs/eventlog"
	"threegol/internal/scheduler"
	"threegol/internal/stats"
	"threegol/internal/transfer"
	"threegol/internal/upload"
)

// photosPerTx is the upload transaction size (a photo set of the
// paper's corpus: log-normal sizes, mean 2.5 MiB); meanSetBytes is the
// mean size of such a set.
const (
	photosPerTx  = 10
	meanSetBytes = photosPerTx * 2.5 * 1024 * 1024
)

// txRecord is one upload transaction: enough to regenerate its photos
// for the output check after the measured window.
type txRecord struct {
	seed   int64
	prefix string
	n      int
	bytes  int64
	wall   float64
	report *scheduler.Report
	err    error
}

// txSeed derives transaction k of home h's photo seed from the run seed.
func txSeed(seed int64, h, k int) int64 {
	return seed*1_000_003 + int64(h)*10_007 + int64(k)
}

// uploadTx uploads photos (named prefix+photo name) over the home's
// ADSL uplink plus its phones with GRD, as core.Home.UploadPhotos does.
func uploadTx(cfg runCfg, h *home, sinkURL, prefix string, photos []core.Photo, sm *scheduler.Metrics) (*scheduler.Report, error) {
	items := make([]scheduler.Item, len(photos))
	byName := make(map[string][]byte, len(photos))
	for i, p := range photos {
		name := prefix + p.Name
		items[i] = scheduler.Item{ID: i, Name: name, Size: int64(len(p.Data))}
		byName[name] = p.Data
	}
	source := func(it scheduler.Item) (io.ReadCloser, error) {
		b, ok := byName[it.Name]
		if !ok {
			return nil, fmt.Errorf("unknown photo %q", it.Name)
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	paths := []scheduler.Path{&transfer.UploadPath{PathName: "adsl", Client: h.adsl, TargetURL: sinkURL, Source: source}}
	for _, r := range h.routes {
		paths = append(paths, &transfer.UploadPath{PathName: r.Name, Client: r.Client, TargetURL: sinkURL, Source: source})
	}
	sp := cfg.tr.begin(eventlog.TraceContext{}, "bench.upload_tx", "photos", eventlog.Int(int64(len(photos))))
	defer sp.End()
	opts := scheduler.Options{Metrics: sm}
	if cfg.tr != nil {
		opts.Events, opts.Trace = cfg.tr.log, sp.Context()
	}
	opts.OnItemDone = func(_ scheduler.Item, d time.Duration) { cfg.tr.add("item_done", d.Seconds()) }
	return scheduler.Run(context.Background(), scheduler.Greedy, items, paths, opts)
}

// genPhotos draws a photo set like core.GeneratePhotos (log-normal
// sizes, mean 2.5 MiB, sd 0.74 MiB, at least 64 KiB) but fills it from
// a xorshift stream eight bytes at a time: the generator's CPU, which
// the measured window also counts, stays a few percent of the upload's.
func genPhotos(n int, seed int64) []core.Photo {
	rng := rand.New(rand.NewSource(seed))
	dist := stats.LogNormalFromMoments(2.5*1024*1024, 0.74*1024*1024)
	photos := make([]core.Photo, n)
	for i := range photos {
		size := max(int(dist.Sample(rng)), 64*1024)
		photos[i] = core.Photo{Name: fmt.Sprintf("IMG_%04d.jpg", i+1), Data: fill(make([]byte, size), rng.Uint64()|1)}
	}
	return photos
}

// fill writes a xorshift64* stream seeded by x into b.
func fill(b []byte, x uint64) []byte {
	var word [8]byte
	for i := 0; i < len(b); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(word[:], x*2685821657736338717)
		copy(b[i:], word[:])
	}
	return b
}

// warmPhoto is the set-up transaction's single photo: seeded content of
// a fixed 256 KiB, so set-up time does not vary with a drawn size.
func warmPhoto(seed int64) []core.Photo {
	return []core.Photo{{Name: "warm.jpg", Data: fill(make([]byte, 256<<10), uint64(seed)|1)}}
}

// photoDigests regenerates a transaction's photos and returns their
// SHA-256 by stored name, with their sizes.
func photoDigests(rec *txRecord) map[string]upload.File {
	out := make(map[string]upload.File, rec.n)
	for _, p := range genPhotos(rec.n, rec.seed) {
		sum := sha256.Sum256(p.Data)
		out[rec.prefix+p.Name] = upload.File{Name: rec.prefix + p.Name, Size: int64(len(p.Data)), SHA256: hex.EncodeToString(sum[:])}
	}
	return out
}

// checkUploads compares the sink's stored files against the expected
// digests; it returns how many expected files arrived intact.
func checkUploads(stored map[string]upload.File, want map[string]upload.File) (good int, problems []string) {
	for name, w := range want {
		got, ok := stored[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("upload %s: not stored", name))
		case got.Size != w.Size || got.SHA256 != w.SHA256:
			problems = append(problems, fmt.Sprintf("upload %s: stored %d bytes sha256 %.12s, sent %d bytes sha256 %.12s",
				name, got.Size, got.SHA256, w.Size, w.SHA256))
		default:
			good++
		}
	}
	return good, problems
}

func runUpload(cfg runCfg) (*outcome, error) {
	o := &outcome{named: make(map[string]float64)}
	sink := &upload.Server{}
	sinkAddr, stopSink, err := serve(cfg.tr.handler(sink, constName("upload.serve")))
	if err != nil {
		return nil, err
	}
	defer stopSink()
	sinkURL := "http://" + sinkAddr + "/upload"

	// Set-up: build both homes until discovery converges, then one
	// small warm-up upload each; repeated, keeping the last.
	var homes []*home
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
			h, err := newHome(homeSpec{index: i, seed: cfg.seed*10 + int64(i), mode: multiProvider, tr: cfg.tr})
			if err != nil {
				return nil, err
			}
			homes = append(homes, h)
			converge = append(converge, h.converge.Seconds())
		}
		for i, h := range homes {
			prefix := fmt.Sprintf("warm-r%d-h%d-", rep, i)
			if _, err := uploadTx(runCfg{}, h, sinkURL, prefix, warmPhoto(txSeed(cfg.seed, i, -1-rep)), nil); err != nil {
				return nil, fmt.Errorf("warm-up upload: %w", err)
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
	rt0, cpu0 := readRuntime(), cpuSeconds()
	start := wall.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	recs := make([][]*txRecord, len(homes))
	var wg sync.WaitGroup
	for i, h := range homes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; wall.Now().Before(deadline); k++ {
				rec := &txRecord{seed: txSeed(cfg.seed, i, k), prefix: fmt.Sprintf("h%d-t%d-", i, k), n: photosPerTx}
				photos := genPhotos(rec.n, rec.seed)
				rec.bytes = core.TotalBytes(photos)
				t0 := wall.Now()
				rec.report, rec.err = uploadTx(cfg, h, sinkURL, rec.prefix, photos, sm)
				rec.wall = wall.Since(t0).Seconds()
				recs[i] = append(recs[i], rec)
			}
		}()
	}
	wg.Wait()
	wall := wall.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	rt1 := readRuntime()

	stored := make(map[string]upload.File)
	for _, f := range sink.Files() {
		stored[f.Name] = f
	}
	var payload int64
	var emulated, scaled sample
	txs := 0
	for _, hr := range recs {
		for _, rec := range hr {
			txs++
			o.attempted += int64(rec.n)
			o.roots = append(o.roots, rec.wall)
			if rec.err != nil {
				o.failed += int64(rec.n)
				o.problem("upload tx %s: %v", rec.prefix, rec.err)
				continue
			}
			good, problems := checkUploads(stored, photoDigests(rec))
			o.failed += int64(rec.n - good)
			o.problems = append(o.problems, problems...)
			for i, d := range rec.report.ItemDone {
				if d <= 0 {
					o.problem("upload tx %s: item %d has no completion time", rec.prefix, i)
				}
			}
			payload += rec.bytes
			scaled = append(scaled, rec.wall*meanSetBytes/float64(rec.bytes))
			emulated = append(emulated, rec.report.Elapsed.Seconds()*timeScale)
		}
	}
	mbit := float64(payload) * 8 / 1e6
	// Goodput and CPU per Mbit over the window; the median transaction time, each scaled to the mean
	// set size so the sizes of a seed's photo sets do not move it.
	o.workPerS = ratio(mbit, wall)
	o.cpuPerWork = ratio(cpu*1e6, mbit)
	o.opP50ms = scaled.median() * 1e3
	o.named["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	o.named["cpu_s_per_gb"] = ratio(cpu, float64(payload)/1e9)
	o.named["upload_tx_s"] = emulated.median()
	o.note("upload: closed loop, %d homes, %d transactions of %d photos; op is one transaction's wall time scaled to a mean-size set",
		homesPerRun, txs, photosPerTx)

	if cfg.tr != nil {
		o.layers = relayLayers(cfg.tr, reg, relayWindow{
			wall: wall, payloadMB: float64(payload) / 1e6, tx: txs, homes: len(homes), upload: true,
			converge: converge, before: rt0, after: rt1,
		})
	}
	return o, nil
}
