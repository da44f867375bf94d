package server

import (
	"testing"

	"repro/internal/dpm"
	"repro/internal/wal"
)

// BenchmarkApply measures the per-batch cost of the accepted-op path:
// purely in-memory, and durable under each fsync policy. The deltas
// against "memory" are the WAL overhead — framing+CRC for never, group
// commit for interval, one fsync per ack for always — that the
// benchmark's serve-durable workload tracks end to end as the wal.*
// per-layer metrics (wal.write_us, wal.fsync_us, wal.fsyncs_per_op).
func BenchmarkApply(b *testing.B) {
	cases := []struct {
		name string
		opts func(b *testing.B) Options
	}{
		{"memory", func(b *testing.B) Options {
			return Options{Shards: 1, MaxOps: 1 << 30}
		}},
		{"wal-never", func(b *testing.B) Options {
			return Options{Shards: 1, MaxOps: 1 << 30, DataDir: b.TempDir(), Fsync: wal.SyncNever}
		}},
		{"wal-interval", func(b *testing.B) Options {
			return Options{Shards: 1, MaxOps: 1 << 30, DataDir: b.TempDir(), Fsync: wal.SyncInterval}
		}},
		{"wal-always", func(b *testing.B) Options {
			return Options{Shards: 1, MaxOps: 1 << 30, DataDir: b.TempDir(), Fsync: wal.SyncAlways}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s, err := Open(tc.opts(b))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Drain()
			c, err := s.CreateSession(CreateSpec{Name: "simplified", Mode: dpm.ADPM, MaxOps: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			ops := []dpm.Operation{{Kind: dpm.OpVerification, Problem: "AmpDesign", Designer: "bench"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply(c.ID, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkState measures the hot read path: "cached" reads an
// unchanged session (every read after the first serves the
// generation-keyed bytes — zero serialization), "uncached" interleaves
// a mutation before each read so every read re-walks and re-serializes
// the full design state. The ratio is the snapshot cache's win; the
// benchmark tracks the served read path as server.state_hit_us,
// server.state_miss_us and server.state_hit_frac.
func BenchmarkState(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		s, err := Open(Options{Shards: 1, MaxOps: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Drain()
		c, err := s.CreateSession(CreateSpec{Name: "simplified", Mode: dpm.ADPM, MaxOps: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.StateBytes(c.ID); err != nil { // fill the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.StateBytes(c.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := s.Stats().Shards[0]
		if st.StateMisses != 1 {
			b.Fatalf("cached run took %d misses, want 1", st.StateMisses)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		s, err := Open(Options{Shards: 1, MaxOps: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Drain()
		c, err := s.CreateSession(CreateSpec{Name: "simplified", Mode: dpm.ADPM, MaxOps: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		ops := []dpm.Operation{{Kind: dpm.OpVerification, Problem: "AmpDesign", Designer: "bench"}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply(c.ID, ops); err != nil { // bump generation
				b.Fatal(err)
			}
			if _, err := s.StateBytes(c.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
