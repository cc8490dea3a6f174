// Package stats computes the per-column descriptive statistics used by the
// benchmark's base featurization (Appendix E of the paper) and provides the
// low-level value classifiers (numeric, integer, date, URL, email, list)
// shared by the rule-based tools and the ML featurization.
package stats

import (
	"regexp"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// ParseFloat attempts to interpret a raw cell as a plain number. It accepts
// optional surrounding whitespace and a leading sign but, unlike the
// embedded-number extractors, rejects units, separators and any other
// decoration: "45" and "-3.2e4" parse, "USD 45" and "1,234" do not.
func ParseFloat(v string) (float64, bool) {
	v = strings.TrimSpace(v)
	// The syntax screen turns away cells strconv could not parse before
	// calling it, which skips the *NumError strconv would allocate for each
	// of the (very common) non-numeric cells on the featurize hot path.
	if !floatSyntax(v) {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// floatSyntax is a necessary condition for strconv.ParseFloat(v, 64) to
// succeed: every string strconv accepts passes it. It mirrors strconv's
// grammar — an optional sign, then "inf"/"infinity" (any case), "nan" (any
// case, unsigned), or a decimal mantissa of digits, underscores and at most
// one dot with an optional e/E exponent — and leaves the rarer fine print
// (hex mantissas after 0x, underscore placement, range) to strconv.
func floatSyntax(v string) bool {
	i := 0
	if i < len(v) && (v[i] == '+' || v[i] == '-') {
		i++
	}
	if i == len(v) {
		return false
	}
	switch c := v[i]; {
	case c == 'i' || c == 'I':
		return foldEqual(v[i:], "inf") || foldEqual(v[i:], "infinity")
	case c == 'n' || c == 'N':
		return i == 0 && foldEqual(v, "nan")
	case c == '0' && i+2 < len(v) && v[i+1]|0x20 == 'x':
		return true
	}
	digits, dot := false, false
	for ; i < len(v); i++ {
		c := v[i]
		if '0' <= c && c <= '9' {
			digits = true
		} else if c == '.' && !dot {
			dot = true
		} else if c != '_' {
			break
		}
	}
	if !digits {
		return false
	}
	if i < len(v) && v[i]|0x20 == 'e' {
		i++
		if i < len(v) && (v[i] == '+' || v[i] == '-') {
			i++
		}
		if i == len(v) || v[i] < '0' || v[i] > '9' {
			return false
		}
		for i < len(v) && ('0' <= v[i] && v[i] <= '9' || v[i] == '_') {
			i++
		}
	}
	return i == len(v)
}

// foldEqual reports whether s equals the lower-case ASCII word w under
// ASCII case folding, the comparison strconv applies to inf and nan.
func foldEqual(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

// IsInt reports whether the raw cell is a plain (possibly signed) integer,
// including zero-padded forms such as "005".
func IsInt(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" {
		return false
	}
	if v[0] == '+' || v[0] == '-' {
		v = v[1:]
	}
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return false
		}
	}
	return true
}

// IsFloatNotInt reports whether the cell parses as a number but is not a
// plain integer (i.e. has a decimal point or exponent).
func IsFloatNotInt(v string) bool {
	_, ok := ParseFloat(v)
	return ok && !IsInt(v)
}

var (
	urlRe   = regexp.MustCompile(`^(?i)(https?|ftp)://[a-z0-9][a-z0-9.\-]*\.[a-z]{2,}(/[^\s]*)?$`)
	emailRe = regexp.MustCompile(`^[a-zA-Z0-9._%+\-]+@[a-zA-Z0-9.\-]+\.[a-zA-Z]{2,}$`)
	// listRe matches a series of items separated by ; or | delimiters
	// (the comma is excluded here because it is ubiquitous inside sentences
	// and embedded numbers; comma lists are caught by listCommaRe below).
	listRe = regexp.MustCompile(`^\s*[^;|]+\s*([;|]\s*[^;|]+\s*){1,}$`)
	// listCommaRe matches comma-separated short tokens (no sentence-like
	// long words sequences): "a, b, c" style.
	listCommaRe = regexp.MustCompile(`^\s*[\w.\-]{1,24}(\s*,\s*[\w.\-]{1,24}){2,}\s*$`)
	// delimSeqRe checks for a sequence of non-alphanumeric delimiters.
	delimSeqRe = regexp.MustCompile(`[;|,]{2,}|[;|]`)
	// embeddedNumRe matches a digit adjacent to non-numeric decoration:
	// units, currency, % signs, or thousands separators.
	embeddedNumRe = regexp.MustCompile(`(?i)^[^\d]{0,8}\d[\d,.'  ]*\s*(%|[a-z$€£¥]{1,12}\.?)?$|^[a-z$€£¥]{1,8}\s*\d[\d,.]*$`)
)

// IsURL reports whether the cell follows the URL standard: a protocol
// followed by a domain, with an optional path.
func IsURL(v string) bool { return urlRe.MatchString(strings.TrimSpace(v)) }

// IsEmail reports whether the cell looks like an email address.
func IsEmail(v string) bool { return emailRe.MatchString(strings.TrimSpace(v)) }

// IsList reports whether the cell is a delimiter-separated series of items,
// e.g. "ru; uk; mx" or "rock|pop|jazz".
func IsList(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" {
		return false
	}
	if listRe.MatchString(v) {
		return true
	}
	return listCommaRe.MatchString(v)
}

// HasDelimiterSequence reports whether the cell contains list-style
// delimiter characters at all; a weaker signal than IsList.
func HasDelimiterSequence(v string) bool { return delimSeqRe.MatchString(v) }

// LooksEmbeddedNumber reports whether the cell contains a number embedded in
// messy syntax: units ("30 Mhz"), currencies ("USD 45"), percents
// ("18.90%"), or grouped digits ("5,00,000"). Plain numbers return false.
func LooksEmbeddedNumber(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if _, ok := ParseFloat(v); ok {
		return false
	}
	if !strings.ContainsAny(v, "0123456789") {
		return false
	}
	return embeddedNumRe.MatchString(v)
}

// dateLayouts is the set of textual layouts the timestamp check recognises.
// It intentionally mirrors what a pandas-style parser accepts out of the box
// and omits bare digit runs like "19980112": the paper observes that
// syntax-driven tools miss those, while ML models recover them from the
// attribute name.
var dateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"01/02/2006",
	"1/2/2006",
	"01-02-2006",
	"02.01.2006",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02T15:04:05Z07:00",
	"01/02/2006 15:04",
	"Jan 2, 2006",
	"January 2, 2006",
	"2 Jan 2006",
	"2 January 2006",
	"Jan-06",
	"Jan 2006",
	"2006-01",
	"15:04:05",
	"15:04",
	"3:04 PM",
	"Mon, 02 Jan 2006",
	"Monday, January 2, 2006",
	"02-Jan-2006",
	"2-Jan-06",
}

var hmsRe = regexp.MustCompile(`^\d{1,2}hrs:\d{1,2}min:\d{1,2}sec$`)

// IsDate reports whether the cell parses as a date or timestamp under any of
// the recognised layouts (plus the "21hrs:15min:3sec" duration-style form
// used in the paper's examples).
func IsDate(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if hmsRe.MatchString(v) {
		return true
	}
	// Quick reject: dates need a digit.
	if !strings.ContainsAny(v, "0123456789") {
		return false
	}
	// Each failed time.Parse allocates a *time.ParseError, so layouts
	// whose screen v fails are skipped without calling it.
	shape := shapeOf(v)
	for i, layout := range dateLayouts {
		if !dateScreens[i].admits(v, &shape) {
			continue
		}
		if _, err := time.Parse(layout, v); err == nil {
			return true
		}
	}
	return false
}

// dateLits are the layout literals the date screens count. time.Parse
// matches each literal byte of a layout against its own byte of the value,
// and each run of layout spaces against at least one value space.
const dateLits = " -/.:,T"

// dateShape is what the date screens need to know about a value.
type dateShape struct {
	count  [len(dateLits)]int
	letter bool // holds an ASCII letter
}

// shapeOf counts v's layout literals and notes whether it has a letter.
func shapeOf(v string) dateShape {
	var sh dateShape
	for i := 0; i < len(v); i++ {
		c := v[i]
		if j := strings.IndexByte(dateLits, c); j >= 0 {
			sh.count[j]++
		}
		if 'a' <= c|0x20 && c|0x20 <= 'z' {
			sh.letter = true
		}
	}
	return sh
}

// dateScreen is a necessary condition for time.Parse(layout, v) to succeed,
// derived from the layout by screenOf.
type dateScreen struct {
	minLen int                // shortest value any layout element accepts
	need   [len(dateLits)]int // literal counts the value must reach
	lead   byte               // first element: 'd' digit, 'y' year (digit or sign), 'm' month, 'w' weekday
	letter bool               // a month name, weekday or AM/PM marker appears
}

// admits reports whether v (with shape sh) passes the screen.
func (d *dateScreen) admits(v string, sh *dateShape) bool {
	if len(v) < d.minLen || (d.letter && !sh.letter) {
		return false
	}
	for i, n := range d.need {
		if sh.count[i] < n {
			return false
		}
	}
	switch c := v[0]; d.lead {
	case 'd':
		return '0' <= c && c <= '9'
	case 'y':
		return '0' <= c && c <= '9' || c == '+' || c == '-'
	case 'm':
		return namePrefix(v, "janfebmaraprmayjunjulaugsepoctnovdec")
	case 'w':
		return namePrefix(v, "sunmontuewedthufrisat")
	}
	return true
}

// namePrefix reports whether v starts with one of the three-letter names
// packed in names, matched case-insensitively the way time.Parse matches
// month and weekday names (every full name starts with its abbreviation).
func namePrefix(v, names string) bool {
	if len(v) < 3 {
		return false
	}
	for i := 0; i+3 <= len(names); i += 3 {
		if foldEqual(v[:3], names[i:i+3]) {
			return true
		}
	}
	return false
}

// dateElems are the layout elements dateLayouts use, longest first so a
// layout tokenizes the way time.Parse reads it: kind as in dateScreen.lead
// ('z' zone, 'p' AM/PM), and the fewest value bytes the element consumes.
var dateElems = []struct {
	elem string
	kind byte
	min  int
}{
	{"January", 'm', 3}, {"Monday", 'w', 6}, {"Z07:00", 'z', 1},
	{"2006", 'y', 4}, {"Jan", 'm', 3}, {"Mon", 'w', 3},
	{"01", 'd', 2}, {"02", 'd', 2}, {"04", 'd', 2}, {"05", 'd', 2},
	{"06", 'd', 2}, {"15", 'd', 1}, {"PM", 'p', 2},
	{"1", 'd', 1}, {"2", 'd', 1}, {"3", 'd', 1},
}

// screenOf derives the date screen of a layout. It panics on a layout
// element it does not know, so extending dateLayouts beyond dateElems
// fails at package initialisation rather than screening wrongly.
func screenOf(layout string) dateScreen {
	var d dateScreen
	for i := 0; i < len(layout); {
		if layout[i] == ' ' {
			d.need[0]++
			d.minLen++
			for i < len(layout) && layout[i] == ' ' {
				i++
			}
			continue
		}
		if j := strings.IndexByte(dateLits, layout[i]); j > 0 {
			d.need[j]++
			d.minLen++
			i++
			continue
		}
		known := false
		for _, e := range dateElems {
			if strings.HasPrefix(layout[i:], e.elem) {
				if i == 0 {
					d.lead = e.kind
				}
				d.letter = d.letter || e.kind == 'm' || e.kind == 'w' || e.kind == 'p'
				d.minLen += e.min
				i += len(e.elem)
				known = true
				break
			}
		}
		if !known {
			panic("stats: no date screen for layout " + strconv.Quote(layout))
		}
	}
	return d
}

// dateScreens holds screenOf(dateLayouts[i]) at index i.
var dateScreens = func() []dateScreen {
	out := make([]dateScreen, len(dateLayouts))
	for i, l := range dateLayouts {
		out[i] = screenOf(l)
	}
	return out
}()

// stopwords is a compact English stopword list used for the
// stopword-count descriptive statistics.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"of": true, "in": true, "on": true, "to": true, "is": true, "are": true,
	"was": true, "were": true, "it": true, "its": true, "this": true,
	"that": true, "with": true, "for": true, "as": true, "at": true,
	"by": true, "be": true, "from": true, "has": true, "have": true,
	"had": true, "not": true, "he": true, "she": true, "they": true,
	"we": true, "you": true, "i": true, "his": true, "her": true,
	"their": true, "our": true, "will": true, "would": true, "can": true,
	"all": true, "there": true, "which": true, "when": true, "who": true,
	"what": true, "so": true, "if": true, "about": true, "into": true,
}

// CountWords returns the number of whitespace-separated tokens in v.
func CountWords(v string) int {
	n := 0
	eachField(v, func(string) { n++ })
	return n
}

// CountStopwords returns the number of tokens in v that are common English
// stopwords (case-insensitive, trailing punctuation stripped).
func CountStopwords(v string) int {
	n := 0
	var buf [64]byte
	eachField(v, func(w string) {
		if isStopword(strings.Trim(w, stopwordTrim), buf[:]) {
			n++
		}
	})
	return n
}

// eachField calls fn for every whitespace-separated token of v, splitting
// exactly as strings.Fields does (runs of unicode.IsSpace) without building
// the token slice. Compute calls the Count* helpers once per cell, so the
// per-value slice was the dominant allocation of base featurization.
func eachField(v string, fn func(string)) {
	start := -1
	for i, r := range v {
		if unicode.IsSpace(r) {
			if start >= 0 {
				fn(v[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fn(v[start:])
	}
}

// isStopword reports whether w lowercases to a stopword. ASCII tokens that
// fit in buf are lowered there (the map lookup on a converted byte slice
// does not allocate); anything else falls back to strings.ToLower, keeping
// the exotic-case behaviour (e.g. the Kelvin sign lowering to 'k')
// identical to the original formulation.
func isStopword(w string, buf []byte) bool {
	if len(w) <= len(buf) {
		ascii := true
		for i := 0; i < len(w); i++ {
			c := w[i]
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		if ascii {
			return stopwords[string(buf[:len(w)])]
		}
	}
	return stopwords[strings.ToLower(w)]
}

// CountWhitespace returns the number of spaces and tabs in v. Other
// whitespace (newlines, carriage returns, Unicode spaces) is not counted;
// the trained models depend on exactly this definition.
func CountWhitespace(v string) int {
	n := 0
	for _, r := range v {
		if r == ' ' || r == '\t' {
			n++
		}
	}
	return n
}

// CountDelimiters returns the number of list-style delimiter characters
// (comma, semicolon, pipe) in v.
func CountDelimiters(v string) int {
	n := 0
	for _, r := range v {
		if r == ',' || r == ';' || r == '|' {
			n++
		}
	}
	return n
}

// Byte classes of the scanner. cSpace is unicode.IsSpace restricted to
// ASCII (the word separators of strings.Fields), cBlank the space and tab
// CountWhitespace counts, cDelim the CountDelimiters set, cTrim the
// punctuation CountStopwords strips from both ends of a token, and cHigh
// any non-ASCII byte. An ordinary word byte is class 0.
const (
	cSpace = 1 << iota
	cBlank
	cDelim
	cTrim
	cHigh
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte("\t\n\v\f\r ") {
		t[c] |= cSpace
	}
	t[' '] |= cBlank
	t['\t'] |= cBlank
	for _, c := range []byte(",;|") {
		t[c] |= cDelim
	}
	for _, c := range []byte(stopwordTrim) {
		t[c] |= cTrim
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = cHigh
	}
	return
}()

// stopwordTrim is the cutset CountStopwords trims from each token.
const stopwordTrim = ".,;:!?\"'()"

// stopwordLead gates the scanner's stopword lookup: stopwordLead[n][c]
// reports whether some n-byte stopword starts with byte c in either case.
// A trimmed token that fails the gate cannot lower-case to a stopword.
var stopwordLead = func() [][256]bool {
	longest := 0
	for w := range stopwords {
		longest = max(longest, len(w))
	}
	lead := make([][256]bool, longest+1)
	for w := range stopwords {
		lead[len(w)][w[0]] = true
		lead[len(w)][w[0]-('a'-'A')] = true
	}
	return lead
}()

// cellCounts are the per-cell token statistics of Compute.
type cellCounts struct {
	words, stopwords, whitespace, delims int32
}

// scanCell returns CountWords, CountStopwords, CountWhitespace and
// CountDelimiters of v in one byte-level pass. A cell with any non-ASCII
// byte is handed to those rune-based helpers instead, so the result is
// identical for every input.
func scanCell(v string) cellCounts {
	var (
		cc    cellCounts
		start = -1 // start of the current token, -1 between tokens
		buf   [8]byte
	)
	for i := 0; i < len(v); i++ {
		k := byteClass[v[i]]
		if k&^cTrim == 0 { // inside a word
			if start < 0 {
				start = i
			}
			continue
		}
		if k&cHigh != 0 {
			return cellCounts{
				int32(CountWords(v)), int32(CountStopwords(v)),
				int32(CountWhitespace(v)), int32(CountDelimiters(v)),
			}
		}
		if k&cBlank != 0 {
			cc.whitespace++
		}
		if k&cDelim != 0 {
			cc.delims++
		}
		if k&cSpace == 0 {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			cc.words++
			if asciiStopword(v[start:i], &buf) {
				cc.stopwords++
			}
			start = -1
		}
	}
	if start >= 0 {
		cc.words++
		if asciiStopword(v[start:], &buf) {
			cc.stopwords++
		}
	}
	return cc
}

// asciiStopword is isStopword(strings.Trim(w, stopwordTrim)) for an ASCII
// token, with the trim done by index and a length gate before the lookup.
func asciiStopword(w string, buf *[8]byte) bool {
	i, j := 0, len(w)
	for i < j && byteClass[w[i]]&cTrim != 0 {
		i++
	}
	for j > i && byteClass[w[j-1]]&cTrim != 0 {
		j--
	}
	if j == i || j-i >= len(stopwordLead) || !stopwordLead[j-i][w[i]] {
		return false
	}
	return isStopword(w[i:j], buf[:])
}
