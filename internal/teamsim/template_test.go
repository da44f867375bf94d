package teamsim

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/dpm"
	"repro/internal/scenario"
)

// BenchmarkSessionCreate compares a cold session build (NewSession:
// network and hierarchy from the parsed scenario, initial propagation,
// owner filters) with a stamp from a template built once
// (Template.NewSession: a DPM fork and a fresh bus).
//
//	go test -run '^$' -bench BenchmarkSessionCreate ./internal/teamsim/
func BenchmarkSessionCreate(b *testing.B) {
	for _, name := range []string{"simplified", "sparse:1000"} {
		scn, err := scenario.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSession(scn, dpm.ADPM, 0, constraint.PropagateOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/stamp", func(b *testing.B) {
			tmpl, err := NewTemplate(scn, dpm.ADPM, constraint.PropagateOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tmpl.NewSession(0)
			}
		})
	}
}
