package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"threegol/internal/scheduler"
	"threegol/internal/stats"
	"threegol/internal/transfer"
)

// Photo is one item of an upload transaction.
type Photo struct {
	Name string
	Data []byte
}

// GeneratePhotos synthesises a photo set matching the paper's corpus:
// sizes are log-normal with mean 2.5 MB and standard deviation 0.74 MB
// (measured over 200 iPhone 4S/5 pictures).
func GeneratePhotos(n int, seed int64) []Photo {
	rng := rand.New(rand.NewSource(seed))
	dist := stats.LogNormalFromMoments(2.5*1024*1024, 0.74*1024*1024)
	photos := make([]Photo, n)
	for i := range photos {
		size := int(dist.Sample(rng))
		if size < 64*1024 {
			size = 64 * 1024
		}
		body := make([]byte, size)
		_, _ = rng.Read(body) // never fails per math/rand contract
		photos[i] = Photo{Name: fmt.Sprintf("IMG_%04d.jpg", i+1), Data: body}
	}
	return photos
}

// TotalBytes sums the photo payloads.
func TotalBytes(photos []Photo) int64 {
	var t int64
	for _, p := range photos {
		t += int64(len(p.Data))
	}
	return t
}

// UploadOptions configure a boosted upload transaction.
type UploadOptions struct {
	Algo scheduler.Algo
	// Phones is the admissible set Φ; empty degrades to ADSL-only.
	Phones []*Phone
	// TargetURL is the upload endpoint (multipart POST).
	TargetURL string
	// MinAlpha and DisableDuplication are the ablation knobs.
	MinAlpha           float64
	DisableDuplication bool
}

// UploadResult reports a finished upload transaction in emulated time.
type UploadResult struct {
	Elapsed         time.Duration
	Bytes           int64
	SchedulerReport *scheduler.Report
}

// UploadPhotos uploads the set over the ADSL uplink plus the admissible
// phones, mirroring the sequential native-client behaviour only in shape
// (multipart POST per photo) while parallelising across paths.
func (h *Home) UploadPhotos(ctx context.Context, photos []Photo, opts UploadOptions) (*UploadResult, error) {
	if opts.TargetURL == "" {
		return nil, fmt.Errorf("core: UploadPhotos requires a TargetURL")
	}
	items := make([]scheduler.Item, len(photos))
	byName := make(map[string][]byte, len(photos))
	for i, p := range photos {
		items[i] = scheduler.Item{ID: i, Name: p.Name, Size: int64(len(p.Data))}
		byName[p.Name] = p.Data
	}
	source := func(item scheduler.Item) (io.ReadCloser, error) {
		b, ok := byName[item.Name]
		if !ok {
			return nil, fmt.Errorf("core: unknown photo %q", item.Name)
		}
		return io.NopCloser(bytes.NewReader(b)), nil
	}

	paths := []scheduler.Path{
		&transfer.UploadPath{
			PathName: "adsl", Client: h.ADSLClient(), TargetURL: opts.TargetURL, Source: source,
		},
	}
	for _, ph := range opts.Phones {
		paths = append(paths, &transfer.UploadPath{
			PathName: ph.Name, Client: h.PhoneClient(ph), TargetURL: opts.TargetURL, Source: source,
		})
	}

	rep, err := scheduler.Run(ctx, opts.Algo, items, paths, scheduler.Options{
		MinAlpha:   opts.MinAlpha,
		Resilience: scheduler.Resilience{DisableDuplication: opts.DisableDuplication},
	})
	if err != nil {
		return nil, fmt.Errorf("core: upload transaction: %w", err)
	}
	return &UploadResult{
		Elapsed:         h.ScaleDuration(rep.Elapsed),
		Bytes:           TotalBytes(photos),
		SchedulerReport: rep,
	}, nil
}

// BaselineUpload uploads the set sequentially over ADSL alone — the
// native-client baseline the paper compares against.
func (h *Home) BaselineUpload(ctx context.Context, photos []Photo, targetURL string) (*UploadResult, error) {
	res, err := h.UploadPhotos(ctx, photos, UploadOptions{
		Algo:      scheduler.RoundRobin, // single path: order-preserving
		TargetURL: targetURL,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
