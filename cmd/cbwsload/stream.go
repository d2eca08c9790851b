package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/cluster"
	"cbws/internal/mem"
	"cbws/internal/trace"
)

// streamReport is the streaming-phase section of the load report.
type streamReport struct {
	Streams              int     `json:"streams"`
	Tenants              int     `json:"tenants"`
	Completed            int64   `json:"completed"`
	StreamsRejectedQuota int64   `json:"streams_rejected_quota"`
	StreamErrors         int64   `json:"stream_errors"`
	BytesSent            int64   `json:"bytes_sent"`
	ChunkAcks            int     `json:"chunk_acks"`
	ChunkAckLatency      latency `json:"chunk_ack_latency_ms"`
}

// syntheticTrace renders a deterministic CBWT trace: a tight annotated
// loop of strided loads, the shape the CBWS prefetcher is built for.
// Every caller with the same arguments gets identical bytes, so
// concurrent streams of the same workload converge on one
// content-addressed result.
func syntheticTrace(name string, instructions uint64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, name)
	if err != nil {
		return nil, err
	}
	b := trace.NewBatcher(w)
	pc := uint64(0x400000)
	addr := uint64(0x1000_0000)
	var done uint64
	for done < instructions {
		b.Event(trace.Event{Kind: trace.BlockBegin, Block: 1})
		for i := 0; i < 16; i++ {
			b.Event(trace.Event{Kind: trace.Load, PC: pc, Addr: mem.Addr(addr)})
			b.Event(trace.Event{Kind: trace.Instr, N: 8})
			addr += 64
			done += 9
		}
		b.Event(trace.Event{Kind: trace.Branch, PC: pc + 0x80, Taken: true})
		b.Event(trace.Event{Kind: trace.BlockEnd, Block: 1})
		done += 3
	}
	b.Flush()
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fireStreams runs the streaming phase: `streams` streams spread over
// `tenants` quota accounts, fed from `concurrency` goroutines through
// the first fleet worker. Opens are single-attempt — a 429 is counted
// as a quota rejection, not slept out — because the point of the phase
// is to measure admission behavior, while chunk-level backpressure
// (429/413 + Retry-After) is honored so admitted streams complete.
func fireStreams(cc *cluster.Client, streams, tenants, concurrency, chunkSize int,
	instructions uint64, budget time.Duration, stderr io.Writer) streamReport {
	data, err := syntheticTrace("cbwsload-stream", instructions)
	if err != nil {
		fmt.Fprintf(stderr, "cbwsload: synthesizing trace: %v\n", err)
		return streamReport{Streams: streams, Tenants: tenants, StreamErrors: int64(streams)}
	}
	fmt.Fprintf(stderr, "cbwsload: streaming %d×%d-byte traces over %d tenant(s)\n",
		streams, len(data), tenants)

	// Pin the sim budget to the synthetic trace so every stream runs the
	// same simulation; identical bytes then converge on one cache entry.
	cfg, err := json.Marshal(map[string]uint64{
		"MaxInstructions":    instructions,
		"WarmupInstructions": instructions / 4,
	})
	if err != nil {
		fmt.Fprintf(stderr, "cbwsload: %v\n", err)
		return streamReport{Streams: streams, Tenants: tenants, StreamErrors: int64(streams)}
	}

	client := cc.Worker(cc.Workers()[0])
	var (
		next, completed, rejectedQuota, errors, bytesSent atomic.Int64

		ackMu   sync.Mutex
		ackLats []time.Duration
	)
	measure := func(d time.Duration, status int) {
		ackMu.Lock()
		ackLats = append(ackLats, d)
		ackMu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= streams {
					return
				}
				req := apiv1.OpenStreamRequest{
					Tenant:     fmt.Sprintf("load-%d", i%tenants),
					Workload:   "cbwsload-stream",
					Prefetcher: "cbws",
					Config:     cfg,
				}
				body, err := json.Marshal(req)
				if err != nil {
					errors.Add(1)
					continue
				}
				deadline := time.Now().Add(budget)
				view, retry, err := client.TryOpenStream(body)
				for err != nil && retry > 0 {
					// Admission said "later": count every rejection, then
					// wait it out so the stream still completes and the
					// phase measures a full lifecycle under quota
					// pressure.
					rejectedQuota.Add(1)
					if time.Now().Add(retry).After(deadline) {
						break
					}
					time.Sleep(retry)
					view, retry, err = client.TryOpenStream(body)
				}
				if err != nil {
					errors.Add(1)
					continue
				}
				if !feedStream(client, view.ID, data, chunkSize, measure, &bytesSent) {
					errors.Add(1)
					continue
				}
				if _, err := client.CloseStream(view.ID); err != nil {
					errors.Add(1)
					continue
				}
				if _, err := client.WaitStream(view.ID); err != nil {
					errors.Add(1)
					continue
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()

	sort.Slice(ackLats, func(i, j int) bool { return ackLats[i] < ackLats[j] })
	rep := streamReport{
		Streams:              streams,
		Tenants:              tenants,
		Completed:            completed.Load(),
		StreamsRejectedQuota: rejectedQuota.Load(),
		StreamErrors:         errors.Load(),
		BytesSent:            bytesSent.Load(),
		ChunkAcks:            len(ackLats),
	}
	if len(ackLats) > 0 {
		rep.ChunkAckLatency = latency{
			P50: ms(percentile(ackLats, 0.50)),
			P95: ms(percentile(ackLats, 0.95)),
			P99: ms(percentile(ackLats, 0.99)),
			Max: ms(ackLats[len(ackLats)-1]),
		}
	}
	return rep
}

// feedStream uploads data in chunkSize pieces, reporting success.
func feedStream(client *apiv1.Client, id string, data []byte, chunkSize int,
	measure func(time.Duration, int), bytesSent *atomic.Int64) bool {
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		if _, err := client.SendChunk(id, data[off:end], measure); err != nil {
			return false
		}
		bytesSent.Add(int64(end - off))
	}
	return true
}
