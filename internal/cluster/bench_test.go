package cluster

import (
	"context"
	"math/rand"
	"testing"

	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

// BenchmarkExecuteAdHoc runs a seeded TPC-App EB 3 text stream, each
// request with its class, through ExecuteContext on a 2-backend
// cluster: parse, route, schedule and execute per request, as an ad hoc
// client's statements take them. The stream is b.N requests long, so
// texts repeat only as often as the mix repeats them, and it holds the
// mix's reads only: a write's time is its ROWA round, which grows with
// the table and would drown the request path this measures.
func BenchmarkExecuteAdHoc(b *testing.B) {
	c, res, _ := tpcAppCluster(b, 2, tpcapp.RowCounts(3))
	mix, err := tpcapp.Mix(3)
	if err != nil {
		b.Fatal(err)
	}
	mix.Bind(res)
	rng := rand.New(rand.NewSource(1))
	stream := make([]workload.Request, 0, b.N)
	for len(stream) < b.N {
		if req := mix.Next(rng); !req.Write {
			stream = append(stream, req)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for _, req := range stream {
		if _, err := c.ExecuteContext(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
