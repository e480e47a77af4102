// Package fault is a deterministic, seedable failpoint registry for chaos
// testing the declustered serving stack. A failpoint ("site") is a named
// location in the code — a store pread, a journal append — that consults
// the registry on every pass; when a rule armed on that site fires, the
// site injects the configured fault: an error, added latency, or a torn
// (truncated) read.
//
// Rules fire probabilistically (`p=0.05`), on every nth call (`n=40`), or
// unconditionally when neither trigger is given. Probability draws come
// from a per-rule PRNG seeded from the registry seed and the site name, so
// a fixed seed replays the same fault schedule byte-for-byte under a
// single-threaded call sequence (concurrent callers interleave their draws,
// but the draw sequence itself — and therefore the injected-fault density —
// is still reproducible).
//
// The hot path is cheap when faults are off: Eval on a disarmed (or nil)
// registry is one atomic load. Sites pay the mutex + map lookup only while
// at least one rule is armed.
//
// Spec grammar (CLI flags, the FAULT admin verb):
//
//	spec      := rule { ";" rule }
//	rule      := site ":" directive { ":" directive }
//	directive := "err" | "torn" | "delay=<duration>" | "p=<float>" | "n=<int>"
//
// Examples:
//
//	store.read:err:p=0.05                    5% of preads fail
//	store.read:delay=10ms:p=0.1              10% of preads stall 10ms
//	store.read.disk2:err                     every read of disk 2 fails
//	store.wal:err:n=40                       every 40th journal append fails
//
// Well-known site names are declared as constants here so the layers and
// their tests agree on spelling; registering rules for unknown sites is
// allowed (they simply never fire).
//
// An injected read error stands in for a real one, not for a class of its
// own: the server reads a disk batch once and fails over or degrades every
// read that failed while its query was still live, whatever the error.
// Nothing on the serving path tells an injected failure from a real one.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Failpoint site naming convention: <package>.<operation>[.<instance>].
const (
	// SiteStoreRead guards every positioned page read in internal/store: it
	// is evaluated once per span of a batch read, so an injected delay
	// models a device that charges per positioned read.
	SiteStoreRead = "store.read"
	// SiteStoreReadDisk is the per-disk variant: SiteStoreReadDisk + "3"
	// guards only reads against disk 3. StoreReadDiskSite builds the name.
	SiteStoreReadDisk = "store.read.disk"
	// SiteStoreWAL guards every journal append on the store's write path
	// (one evaluation per mutation, before any owner journal is written). An
	// injected error aborts the mutation before it is acknowledged.
	SiteStoreWAL = "store.wal"
	// SiteStoreWrite guards every shadow page write of a mutated bucket
	// copy. Because the journal is already committed when pages are written,
	// an injected error does NOT un-acknowledge the mutation: the stale copy
	// is healed by replay on the next open (or by the scrubber).
	SiteStoreWrite = "store.write"
	// SiteStoreWriteDisk is the per-disk page-write variant; see
	// StoreWriteDiskSite.
	SiteStoreWriteDisk = "store.write.disk"
)

// StoreReadDiskSite names the per-disk store read failpoint for one disk.
func StoreReadDiskSite(disk int) string {
	return SiteStoreReadDisk + strconv.Itoa(disk)
}

// StoreWriteDiskSite names the per-disk page-write failpoint for one disk.
func StoreWriteDiskSite(disk int) string {
	return SiteStoreWriteDisk + strconv.Itoa(disk)
}

// ErrInjected is the sentinel every injected error wraps, so that a test can
// tell with errors.Is that a failure came from a fired failpoint. The
// serving path does not ask: an injected failure is a failed read like any
// other.
var ErrInjected = errors.New("injected fault")

// Kind selects what a rule injects when it fires.
type Kind uint8

const (
	// KindError makes the site return an injected transient error.
	KindError Kind = iota
	// KindDelay makes the site stall for Rule.Delay before proceeding.
	KindDelay
	// KindTorn makes a read site deliver a torn buffer: the tail of the
	// read is lost, which the store's page validation must catch.
	KindTorn
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "err"
	case KindDelay:
		return "delay"
	case KindTorn:
		return "torn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule arms one fault on one site. The zero trigger (Prob == 0 && Nth == 0)
// fires on every call; Nth takes precedence over Prob when both are set.
type Rule struct {
	Site  string
	Kind  Kind
	Delay time.Duration // KindDelay: how long to stall
	Prob  float64       // fire with this probability per call
	Nth   int           // fire on every Nth call (1-based)
}

// String renders the rule in the spec grammar Parse accepts.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Site)
	b.WriteByte(':')
	if r.Kind == KindDelay {
		fmt.Fprintf(&b, "delay=%s", r.Delay)
	} else {
		b.WriteString(r.Kind.String())
	}
	if r.Nth > 0 {
		fmt.Fprintf(&b, ":n=%d", r.Nth)
	} else if r.Prob > 0 {
		fmt.Fprintf(&b, ":p=%g", r.Prob)
	}
	return b.String()
}

// Parse decodes a fault spec (see the package comment for the grammar).
// An empty spec yields no rules.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("fault: rule %q needs site:directive", raw)
		}
		r := Rule{Site: strings.TrimSpace(parts[0]), Kind: 255}
		if r.Site == "" {
			return nil, fmt.Errorf("fault: rule %q has an empty site", raw)
		}
		for _, d := range parts[1:] {
			d = strings.TrimSpace(d)
			key, val, hasVal := strings.Cut(d, "=")
			switch {
			case d == "err":
				r.Kind = KindError
			case d == "torn":
				r.Kind = KindTorn
			case key == "delay" && hasVal:
				dur, err := time.ParseDuration(val)
				if err != nil || dur < 0 {
					return nil, fmt.Errorf("fault: rule %q: bad delay %q", raw, val)
				}
				r.Kind = KindDelay
				r.Delay = dur
			case key == "p" && hasVal:
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("fault: rule %q: bad probability %q", raw, val)
				}
				r.Prob = p
			case key == "n" && hasVal:
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("fault: rule %q: bad nth %q", raw, val)
				}
				r.Nth = n
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown directive %q", raw, d)
			}
		}
		if r.Kind == 255 {
			return nil, fmt.Errorf("fault: rule %q selects no fault kind (err, torn or delay=)", raw)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// armedRule is one rule plus its firing state. The registry mutex guards
// calls/fired and the PRNG.
type armedRule struct {
	rule  Rule
	rng   *rand.Rand
	calls int64
	fired int64
}

// Registry holds the armed rules and their counters. All methods are safe
// for concurrent use, and every method is safe on a nil *Registry (a nil
// registry is permanently disarmed), so call sites need no nil checks.
type Registry struct {
	seed  int64
	armed atomic.Bool
	total atomic.Int64

	mu    sync.Mutex
	sites map[string][]*armedRule
}

// NewRegistry creates an empty (disarmed) registry with the given seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, sites: make(map[string][]*armedRule)}
}

// Seed returns the registry's seed.
func (r *Registry) Seed() int64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Enabled reports whether any rule is armed; the disabled fast path is one
// atomic load.
func (r *Registry) Enabled() bool { return r != nil && r.armed.Load() }

// Total returns how many faults have fired across all sites.
func (r *Registry) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Set arms the given rules in addition to whatever is already armed. Each
// rule's PRNG is seeded from the registry seed, the site name and the
// rule's arming position, so the schedule is independent of map iteration
// order and of rules armed on other sites.
func (r *Registry) Set(rules ...Rule) {
	if r == nil || len(rules) == 0 {
		return
	}
	r.mu.Lock()
	for _, rule := range rules {
		h := fnv.New64a()
		h.Write([]byte(rule.Site))
		h.Write([]byte{byte(len(r.sites[rule.Site]))})
		r.sites[rule.Site] = append(r.sites[rule.Site], &armedRule{
			rule: rule,
			rng:  rand.New(rand.NewSource(r.seed ^ int64(h.Sum64()))),
		})
	}
	r.mu.Unlock()
	r.armed.Store(true)
}

// SetSpec parses spec and arms its rules.
func (r *Registry) SetSpec(spec string) error {
	rules, err := Parse(spec)
	if err != nil {
		return err
	}
	r.Set(rules...)
	return nil
}

// Clear disarms every rule. Fired totals are kept (they count injections
// over the registry's lifetime).
func (r *Registry) Clear() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sites = make(map[string][]*armedRule)
	r.mu.Unlock()
	r.armed.Store(false)
}

// SiteStatus reports one armed rule's configuration and counters.
type SiteStatus struct {
	Site  string `json:"site"`
	Rule  string `json:"rule"`
	Calls int64  `json:"calls"`
	Fired int64  `json:"fired"`
}

// Status returns every armed rule with its counters, sorted by site then
// arming order, for the FAULT admin verb and operator tooling.
func (r *Registry) Status() []SiteStatus {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SiteStatus
	names := make([]string, 0, len(r.sites))
	for name := range r.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, ar := range r.sites[name] {
			out = append(out, SiteStatus{
				Site:  name,
				Rule:  ar.rule.String(),
				Calls: ar.calls,
				Fired: ar.fired,
			})
		}
	}
	return out
}

// Injection is what a site must do after consulting the registry: stall for
// Delay, then fail with Err, then (for reads that got this far) deliver a
// torn buffer if Torn is set. Multiple armed rules compose: delays add,
// the first error wins, torn is sticky.
type Injection struct {
	Err   error
	Delay time.Duration
	Torn  bool
}

// Eval records one pass through a site and returns the composed injection
// of every rule that fired. It returns a zero Injection and false when
// nothing fired — including on a nil or disarmed registry.
func (r *Registry) Eval(site string) (Injection, bool) {
	if r == nil || !r.armed.Load() {
		return Injection{}, false
	}
	r.mu.Lock()
	rules := r.sites[site]
	if len(rules) == 0 {
		r.mu.Unlock()
		return Injection{}, false
	}
	var inj Injection
	hit := false
	for _, ar := range rules {
		ar.calls++
		fire := true
		switch {
		case ar.rule.Nth > 0:
			fire = ar.calls%int64(ar.rule.Nth) == 0
		case ar.rule.Prob > 0:
			fire = ar.rng.Float64() < ar.rule.Prob
		}
		if !fire {
			continue
		}
		ar.fired++
		hit = true
		switch ar.rule.Kind {
		case KindError:
			if inj.Err == nil {
				inj.Err = fmt.Errorf("fault: site %s: %w", site, ErrInjected)
			}
		case KindDelay:
			inj.Delay += ar.rule.Delay
		case KindTorn:
			inj.Torn = true
		}
	}
	r.mu.Unlock()
	if hit {
		r.total.Add(1)
	}
	return inj, hit
}

// Sleep pauses for d, returning early with ctx's error if the context is
// cancelled first. Injected stalls must sleep through this so the query's own
// deadline can bound a stalled read instead of wedging the disk's I/O
// goroutine.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
