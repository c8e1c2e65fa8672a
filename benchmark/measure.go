package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"qcpa/internal/server"
)

const (
	kindRead  = 0
	kindWrite = 1
)

// recorder holds the samples one client goroutine took in the timed
// window, cut into the window's time slices. Nothing is shared between
// goroutines until the window is over.
type recorder struct {
	// lat[kind] are request latencies in ns in completion order;
	// failedLatency marks a failed request.
	lat [2][]int64
	// cut[kind][s] is len(lat[kind]) when slice s began.
	cut [2][]int
}

func newRecorder(capacity int) *recorder {
	r := &recorder{}
	for k := range r.lat {
		r.lat[k] = make([]int64, 0, capacity)
		r.cut[k] = []int{0}
	}
	return r
}

// advance closes every slice before s.
func (r *recorder) advance(s int) {
	for k := range r.cut {
		for len(r.cut[k]) <= s {
			r.cut[k] = append(r.cut[k], len(r.lat[k]))
		}
	}
}

func (r *recorder) add(kind, slice int, lat int64) {
	r.advance(slice)
	r.lat[kind] = append(r.lat[kind], lat)
}

// slice returns the samples of one kind that completed in slice s.
func (r *recorder) slice(kind, s int) []int64 {
	return r.lat[kind][r.cut[kind][s]:r.cut[kind][s+1]]
}

// procSample is the process-wide reading taken at a slice boundary.
type procSample struct {
	cpu float64 // user+sys CPU seconds
	mem runtime.MemStats
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeProcSample(withMem bool) procSample {
	var p procSample
	if withMem {
		runtime.ReadMemStats(&p.mem)
	}
	p.cpu = processCPU()
	return p
}

// loopSpec describes one closed-loop timed window: conns client
// goroutines, each with one request outstanding, walking its own
// pre-generated stream through a warm-up and then the window.
type loopSpec struct {
	// begin is when the warm-up starts; the zero value means now. The
	// realloc workload sets it so that its driver shares the window.
	begin  time.Time
	conns  int
	warmup time.Duration
	length time.Duration
	slices int
	// maxRequests, when positive, ends the window after that many
	// requests in total instead of at its deadline.
	maxRequests int
	// streamLen is the number of pre-generated requests per connection.
	// A stream that may not wrap (its inserts would repeat keys) fails
	// the run when it is used up.
	streamLen int
	wrap      bool
	// issue sends request i of connection conn and waits for the reply.
	issue func(conn, i int) (resp *server.Response, kind int, err error)
	// check is the per-response oracle. It runs after the request's
	// latency has been taken.
	check func(conn, i int, resp *server.Response) error
	// withMem makes the boundary samples include runtime.MemStats
	// (traced runs only: reading them stops the world briefly).
	withMem bool
	// boundary, when not nil, is called at the start of every slice
	// and at the end of the last (s == slices), off the request path:
	// where counter snapshots are taken.
	boundary func(s int)
}

// windowResult is what a timed window measured.
type windowResult struct {
	recs []*recorder
	// sliceLen is the duration of one slice.
	sliceLen time.Duration
	slices   int
	// proc[s] was read when slice s began; proc[slices] at the end.
	proc []procSample
	// ok[s] is the number of successful requests completed in slice s.
	ok        []int
	attempted int64
	failed    int64
	// oracle collects per-response mismatches (capped).
	oracle []string
}

const maxOracleMessages = 10

// runLoop runs the warm-up and the timed window of spec.
func runLoop(spec loopSpec) (*windowResult, error) {
	res := &windowResult{slices: spec.slices, recs: make([]*recorder, spec.conns)}
	begin := spec.begin
	if begin.IsZero() {
		begin = time.Now()
	}
	start := begin.Add(spec.warmup)
	deadline := start.Add(spec.length)
	sliceLen := spec.length / time.Duration(spec.slices)

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	perConn := 0
	if spec.maxRequests > 0 {
		perConn = (spec.maxRequests + spec.conns - 1) / spec.conns
	}
	// Room for 100k requests/s per connection: append must not grow a
	// slice inside the window.
	capacity := int(spec.length.Seconds()*100_000) + 1024
	if perConn > 0 {
		capacity = perConn
	}
	done := make(chan struct{})
	for c := 0; c < spec.conns; c++ {
		rec := newRecorder(capacity)
		res.recs[c] = rec
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var attempted, failed int64
			var oracle []string
			measured := 0
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) || (perConn > 0 && measured >= perConn) {
					break
				}
				idx := i
				if idx >= spec.streamLen {
					if !spec.wrap {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("connection %d used up its %d pre-generated requests before the window ended", c, spec.streamLen)
						}
						mu.Unlock()
						break
					}
					idx %= spec.streamLen
				}
				resp, kind, err := spec.issue(c, idx)
				t1 := time.Now()
				ok := err == nil && resp != nil && resp.OK
				if ok && spec.check != nil {
					if cerr := spec.check(c, idx, resp); cerr != nil && len(oracle) < maxOracleMessages {
						oracle = append(oracle, cerr.Error())
					}
				}
				if t0.Before(start) {
					if !ok {
						// A failure in the warm-up is still a failure
						// of the run.
						attempted++
						failed++
					}
					continue
				}
				attempted++
				measured++
				lat := t1.Sub(t0).Nanoseconds()
				if !ok {
					failed++
					lat = failedLatency
					if len(oracle) < maxOracleMessages {
						oracle = append(oracle, fmt.Sprintf("request failed: resp=%+v err=%v", resp, err))
					}
				}
				s := int(t1.Sub(start) / sliceLen)
				if s >= spec.slices {
					s = spec.slices - 1
				}
				rec.add(kind, s, lat)
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			res.oracle = append(res.oracle, oracle...)
			mu.Unlock()
		}(c)
	}

	// The sampler reads the process counters at each slice boundary.
	// It sleeps between boundaries, so it costs the two cores nothing.
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for s := 0; s <= spec.slices; s++ {
			timer := time.NewTimer(time.Until(start.Add(time.Duration(s) * sliceLen)))
			select {
			case <-timer.C:
			case <-done:
				timer.Stop()
			}
			res.proc = append(res.proc, takeProcSample(spec.withMem))
			if spec.boundary != nil {
				spec.boundary(s)
			}
		}
	}()
	wg.Wait()
	end := time.Now()
	close(done)
	samplerWG.Wait()

	res.sliceLen = sliceLen
	if end.Before(deadline) {
		// Ended by request count: one slice of the length
		// actually run.
		res.sliceLen = end.Sub(start) / time.Duration(spec.slices)
		if res.sliceLen <= 0 {
			res.sliceLen = time.Nanosecond
		}
	}
	for _, rec := range res.recs {
		rec.advance(spec.slices)
	}
	res.countOK()
	return res, firstErr
}

// sliceLatencies merges the connections' samples of one kind in slice
// s, sorted.
func (w *windowResult) sliceLatencies(kind, s int) []int64 {
	var all []int64
	for _, rec := range w.recs {
		all = append(all, rec.slice(kind, s)...)
	}
	return sortNS(all)
}

// allLatencies merges every sample of one kind in the window, sorted.
func (w *windowResult) allLatencies(kind int) []int64 {
	var all []int64
	for _, rec := range w.recs {
		all = append(all, rec.lat[kind]...)
	}
	return sortNS(all)
}

// countOK fills ok: the successful requests completed per slice.
func (w *windowResult) countOK() {
	w.ok = make([]int, w.slices)
	for s := range w.ok {
		for _, rec := range w.recs {
			for k := range rec.lat {
				for _, lat := range rec.slice(k, s) {
					if lat != failedLatency {
						w.ok[s]++
					}
				}
			}
		}
	}
}

// sliced evaluates f on every slice and returns the metric: the median
// over slices, with that median's spread.
func (w *windowResult) sliced(unit string, n int, f func(s int) float64) metricValue {
	vals := make([]float64, w.slices)
	for s := range vals {
		vals[s] = f(s)
	}
	return metricValue{Value: median(vals), Unit: unit, N: n, Spread: medianSpread(vals), Parts: vals}
}

// requestMetrics fills the end-to-end metrics every request workload
// shares: throughput, read and write percentiles, CPU per request.
func (w *windowResult) requestMetrics(out map[string]metricValue, samples map[string]int) {
	secs := w.sliceLen.Seconds()
	reads, writes := w.allLatencies(kindRead), w.allLatencies(kindWrite)
	samples["reads"] = len(reads)
	samples["writes"] = len(writes)

	out["throughput_rps"] = w.sliced("1/s", len(reads)+len(writes), func(s int) float64 { return float64(w.ok[s]) / secs })

	// The median is taken slice by slice like every other timing. The
	// tail is taken over the whole window: a slice holds too few
	// samples beyond its own p99 for that to be steady, so the slices
	// only supply the recorded spread.
	pct := func(name string, kind int, all []int64) {
		if len(all) == 0 {
			return
		}
		bySlice := make([][]int64, w.slices)
		for s := range bySlice {
			bySlice[s] = w.sliceLatencies(kind, s)
		}
		out[name+"_p50_us"] = w.sliced("us", len(all), func(s int) float64 { return nsToUS(percentileNS(bySlice[s], 0.50)) })
		tail := w.sliced("us", len(all), func(s int) float64 { return nsToUS(percentileNS(bySlice[s], 0.99)) })
		tail.Value = nsToUS(percentileNS(all, 0.99))
		out[name+"_p99_us"] = tail
	}
	pct("read", kindRead, reads)
	pct("write", kindWrite, writes)

	out["cpu_s_per_kreq"] = w.sliced("s", len(reads)+len(writes), func(s int) float64 {
		return ratio(w.proc[s+1].cpu-w.proc[s].cpu, float64(w.ok[s])/1000)
	})
}

// procMetrics fills the proc.* per-layer metrics of a traced run from
// the process samples taken at the window's boundaries; ops is the
// number of requests the window completed.
func procMetrics(out map[string]metricValue, samples []procSample, ops int) {
	first, last := samples[0].mem, samples[len(samples)-1].mem
	perOp := func(d uint64) float64 { return ratio(float64(d), float64(ops)) }
	out["proc.allocs_per_op"] = metricValue{Value: perOp(last.Mallocs - first.Mallocs), Unit: "count", N: ops}
	out["proc.bytes_per_op"] = metricValue{Value: perOp(last.TotalAlloc - first.TotalAlloc), Unit: "B", N: ops}
	out["proc.gc_cycles"] = metricValue{Value: float64(last.NumGC - first.NumGC), Unit: "count"}
	out["proc.gc_pause_ms_total"] = metricValue{Value: float64(last.PauseTotalNs-first.PauseTotalNs) / 1e6, Unit: "ms"}
	var inuse uint64
	for _, p := range samples {
		if p.mem.HeapInuse > inuse {
			inuse = p.mem.HeapInuse
		}
	}
	out["proc.heap_inuse_mb_max"] = metricValue{Value: float64(inuse) / (1 << 20), Unit: "MB", N: len(samples)}
}

// layerMetrics fills what a traced request window contributes to the
// per-layer list besides the ladder: counter deltas, process cost and
// the tail the p99 hides.
func (w *windowResult) layerMetrics(out map[string]metricValue, before, after counters) {
	counterMetrics(before, after, out)
	ops := 0
	for _, n := range w.ok {
		ops += n
	}
	procMetrics(out, w.proc, ops)
	reads := w.allLatencies(kindRead)
	out["proc.read_p999_us"] = metricValue{Value: nsToUS(percentileNS(reads, 0.999)), Unit: "us", N: len(reads)}
}
