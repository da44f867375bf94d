package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/scenario"
	"repro/internal/teamsim"
	"repro/internal/wal"
)

// Session templates. Every session of one scenario in one mode starts
// from the same state — the parsed scenario, the DPM at its initial
// fixpoint, the owners' relevance filters — so the server builds that
// state once (teamsim.Template) and stamps every create, restore, crash
// recovery, adoption and promotion from it. A stamp is byte-identical to
// a fresh build (DESIGN §8), so the cache changes cost, never behaviour.

// templateCap bounds the number of cached templates per server. Past it
// the least recently used template is dropped; its next use rebuilds it.
const templateCap = 32

// errTemplatePanic is what callers waiting on a template build receive
// when the build panicked (the panic itself stays with the builder).
var errTemplatePanic = errors.New("server: template build panicked")

// templateKey identifies a template: a built-in scenario name, or the
// SHA-256 of a DDDL source, plus the transition mode.
type templateKey struct {
	name string
	src  [sha256.Size]byte
	mode dpm.Mode
}

// templateEntry is one cached (or in-flight) template build.
type templateEntry struct {
	// ready is closed once t and err are final.
	ready chan struct{}
	t     *teamsim.Template
	err   error
	// used is the cache's clock at the entry's last use (LRU order).
	used uint64
}

// templateCache is a server's bounded LRU of session templates, shared
// by all its shards. A template is built once, outside the lock: a
// concurrent caller for the same key waits for that build. A build that
// fails or panics is not cached.
type templateCache struct {
	mu      sync.Mutex
	entries map[templateKey]*templateEntry
	clock   uint64
}

func newTemplateCache() *templateCache {
	return &templateCache{entries: map[templateKey]*templateEntry{}}
}

// byName returns the template of a built-in scenario.
func (c *templateCache) byName(name string, mode dpm.Mode) (*teamsim.Template, error) {
	return c.get(templateKey{name: name, mode: mode}, func() (*dddl.Scenario, error) {
		return scenario.ByName(name)
	})
}

// bySource returns the template of a DDDL source.
func (c *templateCache) bySource(src string, mode dpm.Mode) (*teamsim.Template, error) {
	return c.get(templateKey{src: sha256.Sum256([]byte(src)), mode: mode}, func() (*dddl.Scenario, error) {
		return dddl.ParseString(src)
	})
}

// forImage returns the template of a durable session image, resolved
// exactly as the session was first created: by built-in name, or from
// the original DDDL source.
func (c *templateCache) forImage(img *wal.SessionImage) (*teamsim.Template, error) {
	mode, err := parseModeString(img.Mode)
	if err != nil {
		return nil, err
	}
	switch {
	case img.Scenario != "":
		return c.byName(img.Scenario, mode)
	case img.Source != "":
		return c.bySource(img.Source, mode)
	}
	return nil, fmt.Errorf("image %s has neither scenario name nor source", img.ID)
}

// get returns the cached template for key, building it from parse()
// when absent.
func (c *templateCache) get(key templateKey, parse func() (*dddl.Scenario, error)) (*teamsim.Template, error) {
	c.mu.Lock()
	c.clock++
	if e := c.entries[key]; e != nil {
		e.used = c.clock
		c.mu.Unlock()
		<-e.ready
		return e.t, e.err
	}
	e := &templateEntry{ready: make(chan struct{}), used: c.clock}
	c.entries[key] = e
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		switch {
		case e.t == nil:
			// Failed or panicked: waiters get the error, nobody later does.
			if e.err == nil {
				e.err = errTemplatePanic
			}
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		case len(c.entries) > templateCap:
			// Only a successful build makes room, so a failing one never
			// costs a cached template.
			c.evictLRU()
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	scn, err := parse()
	if err != nil {
		e.err = err
		return nil, err
	}
	e.t, e.err = teamsim.NewTemplate(scn, key.mode, constraint.PropagateOptions{})
	return e.t, e.err
}

// evictLRU drops the least recently used entry. An in-flight build that
// is dropped still completes for the callers already waiting on it.
// Caller holds c.mu.
func (c *templateCache) evictLRU() {
	var oldest templateKey
	var oldestUsed uint64
	for k, e := range c.entries {
		if oldestUsed == 0 || e.used < oldestUsed {
			oldest, oldestUsed = k, e.used
		}
	}
	delete(c.entries, oldest)
}
