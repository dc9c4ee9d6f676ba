package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/relation"
)

// DocsConfig controls the size and shape of a generated document-search
// database: collections of documents whose nested JSON fields are flattened
// into one row per leaf (a PATH like "user.address.city" plus its value),
// with tags attached through an N:M junction. The flattened layout is how a
// relational keyword-search engine would ingest JSON documents — the
// dotted-path labels stress the tokenizer, and the FIELD fan-out per
// document stresses functional joins at high multiplicity.
type DocsConfig struct {
	// Collections is the number of document collections (at least 1).
	Collections int
	// DocumentsPerCollection is the average number of documents per
	// collection.
	DocumentsPerCollection int
	// FieldsPerDocument is the average number of flattened leaf fields per
	// document.
	FieldsPerDocument int
	// Tags is the number of distinct tags; documents attach to 0-2 each.
	Tags int
	// Seed drives all pseudo-random choices.
	Seed int64
}

// ScaledDocsConfig returns a configuration whose total tuple count grows
// roughly linearly with the scale factor (scale 1 is about 150 tuples).
func ScaledDocsConfig(scale int, seed int64) DocsConfig {
	if scale < 1 {
		scale = 1
	}
	return DocsConfig{
		Collections:            2 * scale,
		DocumentsPerCollection: 10,
		FieldsPerDocument:      6,
		Tags:                   4 * scale,
		Seed:                   seed,
	}
}

// Vocabularies for the document workload. Query generation draws from the
// same lists, so matches exist at every scale.
var (
	docPathRoots = []string{"user", "order", "shipment", "invoice", "profile", "device"}
	docPathMids  = []string{"address", "payment", "settings", "contact", "history"}
	docPathLeafs = []string{"city", "country", "email", "status", "total", "name", "carrier"}
	docValues    = []string{
		"pending", "approved", "rejected", "shipped", "delivered", "refunded",
		"Helsinki", "Tampere", "Berlin", "Lisbon", "Oslo", "Porto",
	}
	docTitleWords = []string{
		"quarterly", "migration", "onboarding", "incident", "renewal",
		"inventory", "reconciliation", "audit", "forecast", "retention",
	}
	docTags = []string{
		"urgent", "archived", "draft", "reviewed", "public", "internal",
		"flagged", "billing", "legal", "support",
	}
)

// docsSchemas returns the relational schemas of the document workload.
func docsSchemas() []*relation.Schema {
	collection := relation.MustSchema("COLLECTION",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "C_NAME", Type: relation.TypeString},
			{Name: "C_DESCRIPTION", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"})
	document := relation.MustSchema("DOCUMENT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "COLLECTION_ID", Type: relation.TypeString},
			{Name: "TITLE", Type: relation.TypeString},
			{Name: "SUMMARY", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "STORED_IN", Columns: []string{"COLLECTION_ID"}, RefRelation: "COLLECTION", RefColumns: []string{"ID"}})
	field := relation.MustSchema("DOC_FIELD",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "DOC_ID", Type: relation.TypeString},
			{Name: "PATH", Type: relation.TypeString},
			{Name: "F_VALUE", Type: relation.TypeText},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "FIELD_OF", Columns: []string{"DOC_ID"}, RefRelation: "DOCUMENT", RefColumns: []string{"ID"}})
	tag := relation.MustSchema("TAG",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "T_NAME", Type: relation.TypeString},
		},
		[]string{"ID"})
	docTag := relation.MustSchema("DOC_TAG",
		[]relation.Column{
			{Name: "DOC_ID", Type: relation.TypeString},
			{Name: "TAG_ID", Type: relation.TypeString},
		},
		[]string{"DOC_ID", "TAG_ID"},
		relation.ForeignKey{Name: "TAGGED_DOC", Columns: []string{"DOC_ID"}, RefRelation: "DOCUMENT", RefColumns: []string{"ID"}},
		relation.ForeignKey{Name: "TAGGED_TAG", Columns: []string{"TAG_ID"}, RefRelation: "TAG", RefColumns: []string{"ID"}})
	return []*relation.Schema{collection, document, field, tag, docTag}
}

// docPath builds a flattened nested-field label like "user.address.city".
func docPath(rng *rand.Rand) string {
	parts := []string{docPathRoots[rng.Intn(len(docPathRoots))]}
	if rng.Intn(2) == 0 {
		parts = append(parts, docPathMids[rng.Intn(len(docPathMids))])
	}
	parts = append(parts, docPathLeafs[rng.Intn(len(docPathLeafs))])
	return strings.Join(parts, ".")
}

// GenerateDocs builds a synthetic document-search database for the
// configuration.
func GenerateDocs(cfg DocsConfig) (*relation.Database, error) {
	if cfg.Collections < 1 {
		return nil, fmt.Errorf("workload: at least one collection required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase(fmt.Sprintf("docs-scale-%d", cfg.Collections))
	for _, s := range docsSchemas() {
		if _, err := db.CreateTable(s.Clone()); err != nil {
			return nil, err
		}
	}
	collection, _ := db.Table("COLLECTION")
	document, _ := db.Table("DOCUMENT")
	field, _ := db.Table("DOC_FIELD")
	tagT, _ := db.Table("TAG")
	docTagT, _ := db.Table("DOC_TAG")

	str, txt := relation.String, relation.Text
	pick := func(list []string) string { return list[rng.Intn(len(list))] }

	var tagIDs []string
	for t := 0; t < cfg.Tags; t++ {
		id := fmt.Sprintf("tag%d", t+1)
		tagIDs = append(tagIDs, id)
		if _, err := tagT.Insert(map[string]relation.Value{
			"ID":     str(id),
			"T_NAME": str(docTags[t%len(docTags)]),
		}); err != nil {
			return nil, err
		}
	}

	docCounter, fieldCounter := 0, 0
	for c := 0; c < cfg.Collections; c++ {
		cid := fmt.Sprintf("c%d", c+1)
		if _, err := collection.Insert(map[string]relation.Value{
			"ID":            str(cid),
			"C_NAME":        str(fmt.Sprintf("%s-records-%d", pick(docTitleWords), c+1)),
			"C_DESCRIPTION": txt(fmt.Sprintf("Documents about %s and %s.", pick(docTitleWords), pick(docTitleWords))),
		}); err != nil {
			return nil, err
		}
		nDocs := cfg.DocumentsPerCollection
		if nDocs < 1 {
			nDocs = 1
		}
		for d := 0; d < nDocs; d++ {
			docCounter++
			did := fmt.Sprintf("doc%d", docCounter)
			if _, err := document.Insert(map[string]relation.Value{
				"ID":            str(did),
				"COLLECTION_ID": str(cid),
				"TITLE":         str(fmt.Sprintf("%s %s report", pick(docTitleWords), pick(docTitleWords))),
				"SUMMARY":       txt(fmt.Sprintf("Covers the %s of %s records.", pick(docTitleWords), pick(docValues))),
			}); err != nil {
				return nil, err
			}
			nFields := cfg.FieldsPerDocument
			if nFields < 1 {
				nFields = 1
			}
			seenPath := make(map[string]bool)
			for f := 0; f < nFields; f++ {
				path := docPath(rng)
				if seenPath[path] {
					continue // a document holds each leaf once, like real JSON
				}
				seenPath[path] = true
				fieldCounter++
				if _, err := field.Insert(map[string]relation.Value{
					"ID":      str(fmt.Sprintf("f%d", fieldCounter)),
					"DOC_ID":  str(did),
					"PATH":    str(path),
					"F_VALUE": txt(pick(docValues)),
				}); err != nil {
					return nil, err
				}
			}
			nTags := rng.Intn(3)
			attached := make(map[string]bool)
			for t := 0; t < nTags && len(tagIDs) > 0; t++ {
				tid := tagIDs[rng.Intn(len(tagIDs))]
				if attached[tid] {
					continue
				}
				attached[tid] = true
				if _, err := docTagT.Insert(map[string]relation.Value{
					"DOC_ID": str(did),
					"TAG_ID": str(tid),
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if errs := db.CheckIntegrity(); len(errs) > 0 {
		return nil, fmt.Errorf("workload: generated docs database violates integrity: %v", errs[0])
	}
	return db, nil
}

// MustGenerateDocs is GenerateDocs but panics on error.
func MustGenerateDocs(cfg DocsConfig) *relation.Database {
	db, err := GenerateDocs(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// DocQueries generates n two-keyword queries over the document vocabulary:
// tag+value, title-word pairs and nested-path-leaf+value shapes. Matches
// exist at every scale because documents draw from the same lists.
func DocQueries(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		var kw []string
		switch rng.Intn(3) {
		case 0:
			kw = []string{docTags[rng.Intn(len(docTags))], docValues[rng.Intn(len(docValues))]}
		case 1:
			kw = []string{docTitleWords[rng.Intn(len(docTitleWords))], docTitleWords[rng.Intn(len(docTitleWords))]}
		default:
			kw = []string{docPathLeafs[rng.Intn(len(docPathLeafs))], docValues[rng.Intn(len(docValues))]}
		}
		out = append(out, Query{Keywords: kw})
	}
	return out
}
