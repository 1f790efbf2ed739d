// Canonical question identity: the dedup key of the cross-query
// scheduler. Two questions submitted by different jobs are the same unit
// of crowd work when a worker could not tell them apart — same prompt
// text up to case and whitespace, same answer set up to order. The key
// deliberately ignores the submitting job's question ID and the
// simulation-only fields (Truth, Difficulty, Trap): a real deployment
// doesn't know them, and jobs re-asking a known question must hit the
// cache regardless of how they labelled it.
//
// Key structure: "<domain-hash>/<text-hash>", both halves SHA-256 over a
// length-prefixed encoding. The domain hash leads, so questions over
// distinct answer sets can never share a key (they would be distinct
// units of crowd work even with identical prompts), and a key's group —
// the shared-HIT batch it may ride in — is recoverable by prefix.
package scheduler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"cdas/internal/crowd"
)

// hashHexLen is how many hex characters of the SHA-256 are kept per key
// half: 16 chars = 64 bits, far beyond collision reach for any realistic
// question population while keeping keys printable and short.
const hashHexLen = 16

// NormalizeText canonicalises a prompt: lower-cased, whitespace runs
// collapsed to single spaces, leading and trailing space trimmed. Text
// that is already canonical ASCII — the scheduler's own output, and
// most domain entries — is returned as is, without allocating.
func NormalizeText(s string) string {
	// Stop at the first byte canonicalisation would change: an upper-case
	// letter, or white space other than one ' ' between two words.
	i := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return normalizeUnicode(s)
		}
		if 'A' <= c && c <= 'Z' {
			break
		}
		if isASCIISpace(c) && (c != ' ' || i == 0 || s[i-1] == ' ' || i == len(s)-1) {
			break
		}
	}
	if i == len(s) {
		return s
	}
	if i > 0 && s[i-1] == ' ' {
		i-- // that space opens the run the loop below collapses
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:i])
	space := false
	for ; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return normalizeUnicode(s)
		}
		if isASCIISpace(c) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// isASCIISpace is unicode.IsSpace restricted to ASCII.
func isASCIISpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

// normalizeUnicode is NormalizeText for text with bytes outside ASCII,
// where case and space are properties of runes.
func normalizeUnicode(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range strings.ToLower(s) {
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(r)
	}
	return b.String()
}

// CanonicalDomain canonicalises an answer set: entries normalised like
// prompt text, de-duplicated, sorted. The result identifies the set, not
// the presentation order.
func CanonicalDomain(domain []string) []string {
	out := make([]string, 0, len(domain))
	seen := make(map[string]struct{}, len(domain))
	for _, d := range domain {
		n := NormalizeText(d)
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hashStrings hashes a string list injectively: every element is
// length-prefixed, so no concatenation of different lists can produce
// the same byte stream (no separator-injection collisions).
func hashStrings(parts []string) string {
	sum := hashSum(parts)
	return hex.EncodeToString(sum[:])
}

// hashSum is hashStrings before its hex encoding: the first
// hashHexLen/2 bytes of the SHA-256.
func hashSum(parts []string) [hashHexLen / 2]byte {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	var out [hashHexLen / 2]byte
	copy(out[:], h.Sum(nil))
	return out
}

// DomainKey identifies an answer set: the hash of its canonical form.
// Questions share a HIT batch only within one domain key.
func DomainKey(domain []string) string {
	return hashStrings(CanonicalDomain(domain))
}

// QuestionKey is the scheduler's dedup key for a question:
// "<domain-hash>/<text-hash>". Canonically-equal questions (equal
// normalised text and canonical domain) always produce equal keys;
// questions over distinct canonical domains never collide, because the
// domain hash is a dedicated prefix.
func QuestionKey(q crowd.Question) string {
	return questionKey(DomainKey(q.Domain), TextHash(q.Text))
}

// TextHash is the text half of a question key: the hash of the prompt's
// canonical text with its case folded, in 8 bytes. A caller that asks
// the same texts again and again computes it once per text and hands it
// to Enqueue with the question (Request.TextHashes).
func TextHash(text string) uint64 {
	sum := hashSum([]string{foldCase(NormalizeText(text))})
	return binary.BigEndian.Uint64(sum[:])
}

// foldCase maps each rune of normalised text to the lower case of its
// upper case. Lower-casing alone leaves some runes apart from their own
// upper case — µ upper-cases to Μ, which lower-cases to μ, and final ς
// to Σ and then σ — so two prompts differing only in case would get two
// keys. ASCII text, where lower-casing suffices, is returned as is.
func foldCase(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.Map(func(r rune) rune { return unicode.ToLower(unicode.ToUpper(r)) }, s)
		}
	}
	return s
}

// questionKey joins a domain key — aggregator-qualified or not — and
// a prompt's TextHash. Enqueue calls it directly with the domain key it
// derived once for a run of questions over one domain.
func questionKey(domainKey string, textHash uint64) string {
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], textHash)
	var hexSum [hashHexLen]byte
	hex.Encode(hexSum[:], sum[:])
	return domainKey + "/" + string(hexSum[:])
}

// ItemKey is the dedup key of one free-text enumeration answer: the
// hash of its normalised, case-folded text under a dedicated "enum"
// namespace. Workers contributing "Blue Whale" and "blue  whale" name
// the same set member, so enumeration result sets grow by canonical
// identity exactly like the question cache does — through NormalizeText,
// the same case fold as TextHash (µ and Μ, ς and Σ are one item) and
// the same length-prefixed hash. The namespace prefix keeps enumeration
// keys disjoint from question keys even for identical text.
func ItemKey(text string) string {
	return hashStrings([]string{"enum", foldCase(NormalizeText(text))})
}

// MapAnswer returns the caller's own spelling of a canonically-equal
// answer: the domain entry whose canonical form matches answer's,
// falling back to the answer verbatim. Coalesced questions are
// published in one subscriber's literal form, so every other
// subscriber's verdict must be translated back into its own domain
// strings before its presentation layer counts votes.
func MapAnswer(answer string, domain []string) string {
	return newSpelling(domain).of(answer)
}

// spelling is MapAnswer prepared for one domain: each entry is
// canonicalised once, and each distinct answer once.
type spelling struct {
	domain []string          // the domain the table was built from
	canon  map[string]string // canonical form -> first domain entry with it
	memo   map[string]string // answer as the crowd returned it -> the caller's spelling
}

func newSpelling(domain []string) *spelling {
	sp := &spelling{
		domain: domain,
		canon:  make(map[string]string, len(domain)),
		memo:   make(map[string]string, len(domain)),
	}
	for _, d := range domain {
		n := NormalizeText(d)
		if _, dup := sp.canon[n]; !dup {
			sp.canon[n] = d
		}
	}
	return sp
}

// of returns MapAnswer(answer, sp.domain).
func (sp *spelling) of(answer string) string {
	if out, ok := sp.memo[answer]; ok {
		return out
	}
	out, ok := sp.canon[NormalizeText(answer)]
	if !ok {
		out = answer
	}
	sp.memo[answer] = out
	return out
}

// CanonicalID is the question ID the scheduler publishes a deduplicated
// question under: derived from the dedup key alone, so the published HIT
// content is independent of which job contributed the question. The
// "c/" prefix keeps it clear of golden-question IDs ("golden/...") and
// ordinary per-job item IDs.
func CanonicalID(key string) string { return "c/" + key }
