package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"threegol/internal/cellular"
	"threegol/internal/core"
	"threegol/internal/discovery"
	"threegol/internal/hls"
	"threegol/internal/netem"
	"threegol/internal/permit"
	"threegol/internal/permitplane"
	"threegol/internal/proxy"
	"threegol/internal/quota"
)

// The emulated household of the vod and upload workloads: a 6/0.5 Mbps
// ADSL line, two warm HSPA phones with rate variability and 802.11n,
// shaped by netem at evalwild's default time scale, where scaled times
// keep the paper's ratios.
const (
	timeScale   = 60
	dslDown     = 6e6
	dslUp       = 0.5e6
	phoneSignal = -84 // dBm, evalwild's lab location
	variability = 0.25
	phonesPer   = 2
)

// phoneRates returns one phone's mean 3G rates in bits/s (radio cap ×
// mean fading, as evalwild derives them).
func phoneRates() (down, up float64) {
	dl, ul := cellular.RadioCaps(phoneSignal)
	f := cellular.DefaultParams().FadingMean
	return dl * f, ul * f
}

// gateMode selects how the phones' proxies admit requests.
type gateMode int

const (
	// integrated: each proxy asks a permitplane.Cache, which refreshes
	// from an in-process memory-only plane (the network-integrated mode).
	integrated gateMode = iota
	// multiProvider: each proxy is gated by a quota.Tracker whose daily
	// allowance never runs out.
	multiProvider
)

// gateStats counts permit-cache lookups and the refreshes they caused.
type gateStats struct {
	admits, fetches atomic.Int64
}

// homeSpec is what one home is built from.
type homeSpec struct {
	index int
	seed  int64
	mode  gateMode
	plane *permitplane.Sharded // integrated mode
	gates *gateStats
	tr    *tracer
}

// home is one running emulated residence, composed from the exported
// constructors (core.Home hides the proxy dialer, the admission gate
// and the route transports, which the traced run wraps).
type home struct {
	adsl     *http.Client
	routes   []core.Route
	converge time.Duration
	closers  []func()
}

// attemptName names a route transport's spans: playlists relayed over
// ADSL are the core layer's own fetches, everything else is a
// transfer attempt on the route's link class.
func attemptName(class string) func(*http.Request) string {
	return func(r *http.Request) string {
		if hls.IsPlaylistURI(r.URL.Path) {
			return "core.playlist_fetch"
		}
		return "transfer.attempt." + class
	}
}

func constName(name string) func(*http.Request) string {
	return func(*http.Request) string { return name }
}

// serve runs h on a fresh loopback listener and returns its address
// and a stop func that closes the server and waits for Serve to return.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once stopped
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close() // closes the listener and every connection
		<-done
	}, nil
}

// newHome builds and starts one home and waits until discovery sees
// both phones.
func newHome(s homeSpec) (*home, error) {
	h := &home{}
	ok := false
	defer func() {
		if !ok {
			h.close()
		}
	}()
	tr := s.tr
	adslPipe, _, _ := netem.ADSLPipe(dslDown, dslUp, timeScale)
	adslDial := tr.dialer(&netem.Dialer{Pipe: adslPipe, Seed: s.seed}, "netem.dial", "adsl")
	adslTransport := &http.Transport{DialContext: adslDial.DialContext, MaxIdleConnsPerHost: 8}
	h.closers = append(h.closers, adslTransport.CloseIdleConnections)
	h.adsl = &http.Client{Transport: tr.transport(adslTransport, "adsl", attemptName("adsl"))}
	wifi := netem.NewWiFiLimiter(netem.WiFiNGoodput, timeScale)

	browser := &discovery.Browser{}
	browseAddr, err := browser.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("discovery browser: %w", err)
	}
	h.closers = append(h.closers, browser.Close)

	down, up := phoneRates()
	start := wall.Now()
	for i := 0; i < phonesPer; i++ {
		name := fmt.Sprintf("h%d-ph%d", s.index, i+1)
		cell := fmt.Sprintf("cell-%03d", (s.index*phonesPer+i)%vodCells)
		pseed := s.seed*1000 + int64(i)*101
		hspa, dl, ul := netem.HSPAPipe(down, up, timeScale)
		for j, rp := range []*netem.RateProcess{
			{Limiter: dl, Mean: dl.Rate(), Std: variability, Interval: 2 * time.Second / timeScale},
			{Limiter: ul, Mean: ul.Rate(), Std: variability, Interval: 2 * time.Second / timeScale},
		} {
			rp.Start(pseed + int64(j))
			h.closers = append(h.closers, rp.Stop)
		}
		srv := &proxy.Server{Dial: tr.dialer(&netem.Dialer{Pipe: hspa, Seed: pseed + 7}, "proxy.dial", "phone")}
		switch s.mode {
		case integrated:
			cache := &permitplane.Cache{
				Device: name, Cell: cell, Seed: pseed,
				Fetch: func(ctx context.Context, device, cell string) (permit.Response, error) {
					s.gates.fetches.Add(1)
					return s.plane.DecideDevice(ctx, device, cell), nil
				},
			}
			srv.Admit = tr.admit(func(ctx context.Context) bool {
				s.gates.admits.Add(1)
				return cache.Allowed(ctx)
			}, "permitplane.admit")
		case multiProvider:
			q := quota.NewTracker(1 << 50)
			srv.OnBytes = q.Use
			srv.Admit = tr.admit(func(context.Context) bool { return q.ShouldAdvertise() }, "quota.admit")
		}
		addr, stop, err := serve(tr.handler(srv, constName("proxy.request")))
		if err != nil {
			return nil, fmt.Errorf("phone proxy: %w", err)
		}
		h.closers = append(h.closers, stop)

		beacon := &discovery.Beacon{
			Target:   browseAddr,
			Interval: 50 * time.Millisecond, // as core.Home
			Announce: func() (discovery.Announcement, bool) {
				return discovery.Announcement{Name: name, ProxyAddr: addr, Cell: cell}, true
			},
		}
		if err := beacon.Start(); err != nil {
			return nil, fmt.Errorf("beacon: %w", err)
		}
		h.closers = append(h.closers, beacon.Stop)

		wifiDial := tr.dialer(&netem.Dialer{Pipe: netem.WiFiPipe(wifi, timeScale), Seed: pseed + 13}, "netem.dial", "wifi")
		phoneTransport := &http.Transport{
			Proxy:               http.ProxyURL(&url.URL{Scheme: "http", Host: addr}),
			DialContext:         wifiDial.DialContext,
			MaxIdleConnsPerHost: 8,
		}
		h.closers = append(h.closers, phoneTransport.CloseIdleConnections)
		h.routes = append(h.routes, core.Route{
			Name:   name,
			Client: &http.Client{Transport: tr.transport(phoneTransport, "phone", attemptName("phone"))},
			Cell:   cell,
		})
	}
	// Converged once the browser lists every phone; polled finely so
	// the figure is the beacons' latency, not a poll period.
	for len(browser.Devices()) < phonesPer {
		if wall.Since(start) > 5*time.Second {
			return nil, errors.New("discovery did not converge within 5s")
		}
		wall.Sleep(200 * time.Microsecond)
	}
	h.converge = wall.Since(start)
	ok = true
	return h, nil
}

// close releases everything the home started, newest first.
func (h *home) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
	h.closers = nil
}

// routeClass maps a route name to its link class.
func routeClass(name string) string {
	if name == "adsl" {
		return "adsl"
	}
	return "phone"
}
