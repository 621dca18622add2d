package lint

// StaleIgnore closes the suppression loop: a //lint:ignore directive is a
// standing waiver, and a waiver that no longer waives anything is debt —
// either the flagged code was fixed (drop the directive) or the analyzer
// changed shape (re-audit the justification). Reporting stale directives
// keeps the set of active suppressions equal to the set of *current*
// judgement calls, which is what the PR 2 "justified-ignore" policy was
// meant to guarantee.
//
// The analyzer is a meta-pass: it has no Run of its own and is evaluated by
// RunAnalyzers after every other analyzer finished, over the directive
// usage that run recorded. A directive is judged stale only when every
// analyzer it names actually ran (and, for the wildcard form, only when the
// whole registered suite ran): running `mcevet -run maporder` must not
// condemn a lockbalance suppression it never exercised.
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc: "lint:ignore directives that no longer suppress any finding are " +
		"stale and must be removed or re-justified",
	Run: nil, // meta-pass, evaluated by RunAnalyzers after all analyzers
}

// staleIgnoreDiags reports the justified directives that suppressed nothing
// even though everything they name was run, plus directives naming
// analyzers that do not exist (those can never suppress anything).
func staleIgnoreDiags(suite *Suite, ran []*Analyzer, ignores []*ignoreDirective) []Diagnostic {
	ranNames := make(map[string]bool, len(ran))
	for _, a := range ran {
		if a.Run != nil {
			ranNames[a.Name] = true
		}
	}
	fullSuite := true
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
		if a.Run != nil && !ranNames[a.Name] {
			fullSuite = false
		}
	}

	var diags []Diagnostic
	for _, d := range ignores {
		if !d.justified {
			continue // already reported as unjustified by RunAnalyzers
		}
		judgeable := true
		for _, name := range d.analyzers {
			if name == "*" {
				judgeable = judgeable && fullSuite
				continue
			}
			if !known[name] {
				diags = append(diags, Diagnostic{
					Analyzer: StaleIgnore.Name,
					Pos:      d.pkg.Fset.Position(d.pos),
					Message:  "lint:ignore names unknown analyzer " + quote(name) + " (try mcevet -list); it suppresses nothing",
				})
				judgeable = false
				continue
			}
			judgeable = judgeable && ranNames[name]
		}
		if judgeable && !d.used {
			diags = append(diags, Diagnostic{
				Analyzer: StaleIgnore.Name,
				Pos:      d.pkg.Fset.Position(d.pos),
				Message: "stale lint:ignore: no " + joinNames(d.analyzers) +
					" finding on this line any more; remove the directive or re-justify it",
			})
		}
	}
	return diags
}

func quote(s string) string { return "\"" + s + "\"" }

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "/"
		}
		out += n
	}
	return out
}
