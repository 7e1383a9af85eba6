package modelcheck

import (
	"fmt"
	"strings"

	"hydradb/internal/hashtable"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/protocolspec"
	"hydradb/internal/replication"
)

// Footprint is the atomic surface one model covers: which packages it is
// the model of, which nominal atomic words those packages may touch, and
// which invariant.SchedPoint tags they may yield at. Footprints are never
// written by hand; Footprints derives them from the protocolspec.Spec
// declarations, which hydralint's spec engine checks against the code.
//
// Word identities use hydralint's nominal form: "pkgpath.Type.field" for
// struct fields ("[]" appended per indexing level) and "pkgpath.var" for
// package-level variables.
type Footprint struct {
	Model       string   // Model.Name this footprint belongs to
	Packages    []string // import paths of the code the model covers
	AtomicWords []string // nominal word ids the covered packages may access
	SchedTags   []string // invariant.SchedPoint tags the covered code may hit
}

// Specs returns every declared publication-protocol spec, grouped by the
// model each feeds (a model fed by several specs — readerplane — lists
// them consecutively, primary first). hydralint parses the same Spec
// literals statically; this runtime view exists so the model footprints
// can be generated from them.
func Specs() []protocolspec.Spec {
	return []protocolspec.Spec{
		kv.GuardianSpec,
		lease.RenewalSpec,
		message.RingSpec,
		replication.ReadySpec,
		kv.ReadPlaneSpec,
		hashtable.RootSpec,
	}
}

// Footprints derives each model's Footprint from the specs: packages,
// Footprint-marked words, and SchedTags accumulate in first-seen order
// across the specs feeding one model.
func Footprints() []Footprint {
	var order []string
	byModel := map[string]*Footprint{}
	for _, s := range Specs() {
		if s.Model == "" {
			continue
		}
		fp := byModel[s.Model]
		if fp == nil {
			fp = &Footprint{Model: s.Model, Packages: []string{}, AtomicWords: []string{}, SchedTags: []string{}}
			byModel[s.Model] = fp
			order = append(order, s.Model)
		}
		for _, pkg := range s.Packages {
			appendUnique(&fp.Packages, pkg)
		}
		for _, w := range s.Words {
			if w.Footprint {
				appendUnique(&fp.AtomicWords, w.Name)
			}
		}
		for _, t := range s.SchedTags {
			appendUnique(&fp.SchedTags, t)
		}
	}
	out := make([]Footprint, 0, len(order))
	for _, m := range order {
		out = append(out, *byModel[m])
	}
	return out
}

func appendUnique(dst *[]string, s string) {
	for _, have := range *dst {
		if have == s {
			return
		}
	}
	*dst = append(*dst, s)
}

// RenderFootprint is the canonical one-line rendering `hydramc
// -footprints` prints. nil and empty slices render identically.
func RenderFootprint(fp Footprint) string {
	return fmt.Sprintf("model=%s packages=[%s] words=[%s] tags=[%s]",
		fp.Model,
		strings.Join(fp.Packages, " "),
		strings.Join(fp.AtomicWords, " "),
		strings.Join(fp.SchedTags, " "))
}

// SchedSkeleton renders the invariant.SchedPoint hook skeleton a model
// implementation is expected to interleave on, one call per generated
// SchedTag. `hydramc -footprints` prints it next to each footprint so a
// new model can be stubbed from its spec.
func SchedSkeleton(fp Footprint) []string {
	out := make([]string, 0, len(fp.SchedTags))
	for _, tag := range fp.SchedTags {
		out = append(out, fmt.Sprintf("invariant.SchedPoint(%q)", tag))
	}
	return out
}
