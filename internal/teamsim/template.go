package teamsim

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/dcm"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/notify"
)

// Template is one scenario built once: the parsed scenario, a DPM at its
// initial fixpoint (initial ADPM propagation done, region partition
// built), and each problem owner's NM relevance filter. It is the only
// way a Session is built — by the simulation engines and by every
// server path alike — so a replayed operation history produces
// bit-for-bit the delivery counts of the simulated run. A host that
// serves many sessions of one scenario keeps the template and stamps
// each session from it with NewSession; a one-off build (NewSession,
// Run) takes the template's own DPM instead.
//
// A template is read-only once built: the scenario, the template DPM and
// the filters are shared by every stamp, so any number of goroutines may
// call NewSession concurrently.
type Template struct {
	scn     *dddl.Scenario
	d       *dpm.DPM
	owners  []string
	filters []notify.Filter
}

// NewTemplate builds the scenario's DPM in the given mode (with the
// initial propagation in ADPM mode), sets opts as its propagation
// options, and derives every owner's relevance filter. The initial
// propagation runs untraced and is counted in the DPM's EvalCount, which
// every stamp inherits, exactly as a fresh build holds it.
func NewTemplate(scn *dddl.Scenario, mode dpm.Mode, opts constraint.PropagateOptions) (*Template, error) {
	if scn == nil {
		return nil, fmt.Errorf("teamsim: scenario is required")
	}
	d, err := dpm.FromScenario(scn, mode)
	if err != nil {
		return nil, err
	}
	d.PropOpts = opts
	// Build the region partition now so every fork shares it instead of
	// each one rebuilding it.
	d.Net.RegionCount()
	t := &Template{scn: scn, d: d, owners: scn.Owners()}
	for _, id := range t.owners {
		// The filter accepts events on the owner's properties of concern
		// and on every constraint over them.
		props, _ := dcm.Concern(d, id)
		cons := map[string]bool{}
		for name := range props {
			for _, c := range d.Net.ConstraintsOn(name) {
				cons[c.Name] = true
			}
		}
		t.filters = append(t.filters, notify.PropertyFilter(props, cons))
	}
	return t, nil
}

// Scenario returns the template's parsed scenario. It is shared by every
// stamp and must not be modified.
func (t *Template) Scenario() *dddl.Scenario { return t.scn }

// NewSession stamps a session from the template: a Fork of the template
// DPM and a fresh bus subscribed with the shared owner filters. The
// stamp is byte-identical to a session built from the scenario directly
// — state, EvalCount, notification deliveries and per-op trace events.
// maxOps <= 0 selects DefaultMaxOps.
func (t *Template) NewSession(maxOps int) *Session {
	return t.session(t.d.Fork(), maxOps)
}

// session wraps d in a Session with the template's subscriptions.
func (t *Template) session(d *dpm.DPM, maxOps int) *Session {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	bus := notify.NewBus()
	for i, id := range t.owners {
		bus.Subscribe(id, t.filters[i])
	}
	return &Session{D: d, Bus: bus, Res: &Result{Mode: d.Mode}, MaxOps: maxOps}
}
