// Package facts is the interprocedural layer of the selfmaintlint
// framework, mirroring golang.org/x/tools/go/analysis Facts in a hermetic,
// stdlib-only form. Analyzers attach Origins (a wall-clock read, an
// allocation site, a map range, a bus publish, ...) to the function that
// syntactically contains them; a conservative call-graph builder then
// propagates each fact to every function that can reach it — through
// static calls, through function values bound to variables and struct
// fields within a package, and through interface method calls resolved
// against the package's own named types — so a determinism violation three
// frames below the function an analyzer is looking at still surfaces, with
// the call chain in the diagnostic.
//
// Facts are computed per package, in dependency order, on every run: when
// package B is analyzed, the facts of every package it imports are already
// in the Store, keyed by a stable object key (import path + receiver +
// name), so a summary of a dependency substitutes for its source exactly
// the way gc export data substitutes for its syntax trees.
//
// Soundness boundary (deliberate, documented): calls through function
// parameters, function values received over channels, and reflection are
// not resolved; packages loaded only from export data (the standard
// library) carry no facts. The layer over-approximates in the other
// direction instead — an interface call is linked to every package-local
// type that implements the interface, and a function-typed variable to
// every function assigned to it anywhere in the package.
package facts

import (
	"fmt"
	"go/token"
	"go/types"
)

// Kind enumerates the fact kinds the suite propagates.
type Kind uint8

const (
	// ReachesWallClock: the function (transitively) reads or blocks on
	// host time. Reported by wallclock in deterministic packages.
	ReachesWallClock Kind = iota
	// ReachesGlobalRand: the function (transitively) draws from the
	// process-global math/rand generators. Reported by globalrand.
	ReachesGlobalRand
	// Allocates: the function (transitively) contains a detectable
	// allocation site. Reported by hotpathalloc inside //selfmaint:hotpath
	// functions.
	Allocates
	// IteratesMapUnordered: the function (transitively) ranges over a map
	// in an order-sensitive way. Reported by mapiter in deterministic
	// packages.
	IteratesMapUnordered
	// Publishes: the function (transitively) calls Bus.Publish, Subscribe
	// or Tap. Reported by busreentry inside handler literals and by
	// lockguard when a lock is held across the call.
	Publishes
	// Blocks: the function (transitively) performs a blocking channel
	// operation or acquires a mutex. Reported by lockguard inside bus
	// handler literals.
	Blocks
	// WritePathError: the function returns an error that (transitively)
	// originates from an exec/bus/flightrec write path. Unlike the other
	// kinds it only propagates into callers that themselves return an
	// error. Reported by errdrop when the result is discarded.
	WritePathError

	numKinds
)

var kindNames = [numKinds]string{
	"ReachesWallClock", "ReachesGlobalRand", "Allocates",
	"IteratesMapUnordered", "Publishes", "Blocks", "WritePathError",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Analyzer returns the name of the analyzer that reports (and whose
// //lint:allow directives suppress) facts of kind k. The fact layer checks
// suppression both at the origin site and at every call edge a fact would
// propagate through, so one reasoned directive prunes the whole subtree of
// transitive findings above it.
func (k Kind) Analyzer() string {
	switch k {
	case ReachesWallClock:
		return "wallclock"
	case ReachesGlobalRand:
		return "globalrand"
	case Allocates:
		return "hotpathalloc"
	case IteratesMapUnordered:
		return "mapiter"
	case Publishes:
		return "busreentry"
	case Blocks:
		return "lockguard"
	case WritePathError:
		return "errdrop"
	}
	return ""
}

// needsErrorReturn reports whether kind k only propagates into functions
// whose signature returns an error (the error has to have somewhere to
// flow).
func (k Kind) needsErrorReturn() bool { return k == WritePathError }

// Origin is one syntactic site an analyzer attaches a fact at: the
// time.Now call, the make(), the map range. Collectors (one per analyzer,
// see analysis.Analyzer.FactCollector) emit origins for every package —
// including packages where the site is locally legal — because the
// invariant is enforced where the fact is *consumed*, not where it is
// produced.
type Origin struct {
	Kind Kind
	Pos  token.Pos
	// Desc names the site for the chain tail of diagnostics, e.g.
	// "time.Now" or "make". The position is appended automatically.
	Desc string
}

// Fact is one propagated property of a function. Chain[0] is the function
// the fact is attached to; subsequent entries walk down the call graph to
// the function containing the origin; Origin names the site itself
// ("make at internal/routing/destroot.go:315").
type Fact struct {
	Kind   Kind
	Chain  []string
	Origin string
}

// ChainWithOrigin returns the chain elements for a diagnostic reported at
// a call in caller: the caller, the callee path, then the origin site.
// Long chains keep both ends and elide the middle — the first frames say
// where the invariant applies, the last say where the violation lives.
func (f Fact) ChainWithOrigin(caller string) []string {
	elems := make([]string, 0, len(f.Chain)+2)
	if caller != "" {
		elems = append(elems, caller)
	}
	elems = append(elems, f.Chain...)
	if len(elems) > 6 {
		head := elems[:3:3]
		tail := elems[len(elems)-2:]
		elems = append(append(head, "…"), tail...)
	}
	return append(elems, f.Origin)
}

// Store holds the facts of every analyzed package, keyed by function
// object key. It is shared across one whole lint run; packages must be
// analyzed in dependency order so that lookups for imported functions hit.
type Store struct {
	// facts maps object key -> kind -> fact. One fact per kind per
	// function: the first (position-deterministic) path found wins, which
	// keeps diagnostics stable across runs.
	facts map[string]*[numKinds]*Fact
}

// NewStore returns an empty fact store.
func NewStore() *Store {
	return &Store{facts: make(map[string]*[numKinds]*Fact)}
}

// get returns the fact of kind k attached to key, if any.
func (s *Store) get(key string, k Kind) (Fact, bool) {
	if e := s.facts[key]; e != nil && e[k] != nil {
		return *e[k], true
	}
	return Fact{}, false
}

// put attaches f to key if no fact of that kind is present yet, reporting
// whether it was stored.
func (s *Store) put(key string, f Fact) bool {
	e := s.facts[key]
	if e == nil {
		e = new([numKinds]*Fact)
		s.facts[key] = e
	}
	if e[f.Kind] != nil {
		return false
	}
	cp := f
	e[f.Kind] = &cp
	return true
}

// ObjectKey returns the stable cross-package key for a function object:
// "path.Name" for package functions, "path.(Recv).Name" for methods. The
// key depends only on export-visible identity, so a types.Func imported
// from gc export data and the same function type-checked from source map
// to one entry.
func ObjectKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return pkg + ".(" + recvName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvName renders a receiver type for ObjectKey ("*Router", "Engine").
func recvName(t types.Type) string {
	prefix := ""
	if p, ok := t.(*types.Pointer); ok {
		prefix = "*"
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return prefix + n.Obj().Name()
	}
	return prefix + t.String()
}
