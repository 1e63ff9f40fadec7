package main

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
)

// The host-speed reference. The reference host is a 2-vCPU VM whose
// speed follows its neighbours' load: a fixed CPU-bound loop varies
// 1.7× from second to second, and a slow phase can last minutes, which
// moved the medians of CPU-bound figures by a third between sets of
// runs half an hour apart. So each run also times a fixed kernel of the
// benchmark's own, between its measured units, and reports its
// CPU-bound figures at the speed the kernel runs at on a quiet
// reference host. On two goroutines, the kernel walks a table larger
// than the last-level cache at random, read-modify-write, and encodes
// and decodes a JSON batch: memory bandwidth and branchy pointer-heavy
// code, what the fleet engine and the permit daemon contend for with
// their neighbours. Its types are its own and the garbage collector is
// off while it runs, so the program under test cannot change how long
// it takes.
const (
	refWords   = 8 << 20 // table words: 32 MiB
	refSteps   = 400_000 // walk steps per goroutine
	refCodec   = 12      // JSON round trips per goroutine
	refWorkers = 2       // nproc on the reference host
	refReps    = 3       // kernel runs per tick
	// refNominalMs is the kernel's median time on the reference host
	// (2-vCPU Intel Xeon VM) in a quiet phase.
	refNominalMs = 18.7
)

// refItem is the kernel's JSON record.
type refItem struct {
	Device string `json:"device"`
	Cell   string `json:"cell"`
}

var refBatch = func() []refItem {
	out := make([]refItem, 512)
	for i := range out {
		out[i] = refItem{fmt.Sprintf("dev-%05d", i*7), fmt.Sprintf("cell-%03d", i%256)}
	}
	return out
}()

var refTable []uint32

// refKernel runs the kernel once and returns its wall time in ms. Each
// goroutine walks its own half of the table.
func refKernel() float64 {
	if refTable == nil {
		refTable = make([]uint32, refWords)
	}
	const half = refWords / refWorkers
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := wall.Now()
	var wg sync.WaitGroup
	for g := 0; g < refWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := refTable[g*half : (g+1)*half]
			idx, acc := uint32(2*g+1), uint32(0)
			for i := 0; i < refSteps; i++ {
				idx = idx*1664525 + 1013904223
				j := idx & (half - 1)
				acc += part[j]
				part[j^1] += acc
			}
			for i := 0; i < refCodec; i++ {
				b, err := json.Marshal(refBatch)
				var back []refItem
				if err == nil {
					err = json.Unmarshal(b, &back)
				}
				if err != nil || len(back) != len(refBatch) {
					panic(fmt.Sprintf("reference kernel: JSON round trip: %v", err))
				}
			}
		}()
	}
	wg.Wait()
	return wall.Since(t0).Seconds() * 1e3
}

// speedometer collects the kernel's times over one run.
type speedometer struct{ ms sample }

// newSpeedometer touches the kernel's table once, untimed, so the
// first tick does not time its page faults.
func newSpeedometer() *speedometer {
	refKernel()
	return &speedometer{}
}

// tick times the kernel refReps times and returns their median.
func (s *speedometer) tick() float64 {
	var t sample
	for i := 0; i < refReps; i++ {
		t = append(t, refKernel())
	}
	s.ms = append(s.ms, t...)
	return t.median()
}

// paced calls unit(0), unit(1), ... until one returns false, timing
// the kernel before the first call and after each, while the program
// under test idles. It returns each call's scale, which converts a
// figure measured during the call to the reference host's quiet speed:
// multiply times and CPU times by it, divide rates by it. The scale is
// the nominal kernel time over the mean of the two ticks either side
// of the call, which follow the host's speed more closely than a
// run-wide figure.
func (s *speedometer) paced(unit func(k int) bool) (scales []float64) {
	before := s.tick()
	for k := 0; ; k++ {
		more := unit(k)
		after := s.tick()
		scales = append(scales, ratio(2*refNominalMs, before+after))
		before = after
		if !more {
			return scales
		}
	}
}
