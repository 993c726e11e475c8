package telemetry

import "testing"

// FuzzParseTraceHeader feeds arbitrary header values to the decoder: an
// accepted value names a valid span context, and that context's
// HeaderValue parses back to the same context.
func FuzzParseTraceHeader(f *testing.F) {
	for _, s := range []string{
		"0123456789abcdef-fedcba9876543210", " a-b ", "a-b-c", "-b", "a-", "",
		`"a"-"b"`, `a\-b\`, "a\n-\nb", "{a}-{b}", "a -b", "\t-\t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceHeader(v)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceHeader(%q) accepted invalid context %+v", v, sc)
		}
		again, ok := ParseTraceHeader(sc.HeaderValue())
		if !ok || again != sc {
			t.Fatalf("ParseTraceHeader(%q) = %+v; its HeaderValue %q parses to %+v, %v",
				v, sc, sc.HeaderValue(), again, ok)
		}
	})
}

// FuzzParseText registers a counter whose label value is arbitrary: the
// exposition Snapshot writes and ParseText reads back must hold it under
// its SeriesID.
func FuzzParseText(f *testing.F) {
	for _, s := range []string{
		"", "plain", `quo"te`, `back\slash`, "new\nline", "{brace}", "}", `a} 7`,
		`\"}`, "\\n", "# comment", "tab\there", "trailing ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		r := NewRegistry()
		r.Counter("fuzz_total", "label", v).Add(3)
		id := SeriesID("fuzz_total", "label", v)
		if got, ok := r.Snapshot()[id]; !ok || got != 3 {
			t.Fatalf("label %q: Snapshot[%q] = %v, %v; want 3", v, id, got, ok)
		}
	})
}
