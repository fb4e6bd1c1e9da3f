package plus

import "repro/internal/intern"

// This file canonicalises stored records through the global intern table
// (internal/intern) at every backend's ingest funnel. Object ids are NOT
// interned — they are unique per record and never compared in bulk — but
// kinds, names, feature keys/values, privilege nicknames, protection
// modes and edge labels repeat across the whole graph: after interning,
// every snapshot, change-feed entry, spec and account clone holding the
// same string shares one backing array, and the secondary indexes compare
// them as integer symbols.

// internObject returns o with its repeated strings canonicalised.
func internObject(o Object) Object {
	o.Kind = ObjectKind(intern.Canon(string(o.Kind)))
	o.Name = intern.Canon(o.Name)
	o.Lowest = intern.Canon(o.Lowest)
	o.Protect = intern.Canon(o.Protect)
	o.Features = internFeatures(o.Features)
	return o
}

// internEdge returns e with its repeated strings canonicalised.
func internEdge(e Edge) Edge {
	e.Label = intern.Canon(e.Label)
	e.Marking = intern.Canon(e.Marking)
	e.Lowest = intern.Canon(e.Lowest)
	return e
}

// internSurrogate returns sp with its repeated strings canonicalised.
func internSurrogate(sp SurrogateSpec) SurrogateSpec {
	sp.Name = intern.Canon(sp.Name)
	sp.Lowest = intern.Canon(sp.Lowest)
	sp.Features = internFeatures(sp.Features)
	return sp
}

// internFeatures returns nil for an empty map: the log's JSON encoding
// omits empty features, so replay decodes nil, and the live store must
// hold exactly what a reopen would.
func internFeatures(f map[string]string) map[string]string {
	if len(f) == 0 {
		return nil
	}
	out := make(map[string]string, len(f))
	for k, v := range f {
		out[intern.Canon(k)] = intern.Canon(v)
	}
	return out
}
