package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// LogsConfig controls the size and shape of a generated log-search database:
// services and hosts emit timestamped log events, and a fraction of events
// are attached to incidents through an N:M junction, so the close/loose
// analysis has both functional joins (event -> service, event -> host) and a
// transitive N:M (event - incident) to classify. Every event message embeds
// a unique trace token, which makes the term space high-cardinality — the
// index grows a fresh term per event, stressing tokenizer and postings
// exactly where a production log-search deployment would.
type LogsConfig struct {
	// Services is the number of services (at least 1).
	Services int
	// Hosts is the number of hosts shared by all services (at least 1).
	Hosts int
	// EventsPerService is the average number of log events per service.
	EventsPerService int
	// Incidents is the number of incident records; events attach to them
	// with probability 1/4 each.
	Incidents int
	// Seed drives all pseudo-random choices.
	Seed int64
}

// ScaledLogsConfig returns a configuration whose total tuple count grows
// roughly linearly with the scale factor (scale 1 is about 120 tuples).
func ScaledLogsConfig(scale int, seed int64) LogsConfig {
	if scale < 1 {
		scale = 1
	}
	return LogsConfig{
		Services:         2 * scale,
		Hosts:            3 * scale,
		EventsPerService: 40,
		Incidents:        2 * scale,
		Seed:             seed,
	}
}

// Vocabularies for the log workload. Query generation draws from the same
// lists, so matches exist at every scale.
var (
	logSeverities = []string{
		"debug", "info", "notice", "warning", "error", "critical", "fatal",
	}
	logOperations = []string{
		"checkout", "login", "payment", "indexing", "replication",
		"compaction", "backup", "ingestion", "handshake", "rollover",
	}
	logServices = []string{
		"gateway", "auth", "billing", "search", "catalog", "scheduler",
		"notifier", "archiver", "ledger", "mailer",
	}
	logRegions = []string{
		"helsinki", "stockholm", "frankfurt", "dublin", "oregon",
		"virginia", "singapore", "sydney",
	}
	logOutcomes = []string{
		"succeeded", "failed", "retried", "timed out", "throttled",
		"completed", "aborted",
	}
)

// logsSchemas returns the relational schemas of the log workload.
func logsSchemas() []*relation.Schema {
	service := relation.MustSchema("SERVICE",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "S_NAME", Type: relation.TypeString},
			{Name: "S_DESCRIPTION", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"})
	host := relation.MustSchema("HOST",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "HOSTNAME", Type: relation.TypeString},
			{Name: "REGION", Type: relation.TypeString},
		},
		[]string{"ID"})
	event := relation.MustSchema("LOG_EVENT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "SERVICE_ID", Type: relation.TypeString},
			{Name: "HOST_ID", Type: relation.TypeString},
			{Name: "TS", Type: relation.TypeString},
			{Name: "SEVERITY", Type: relation.TypeString},
			{Name: "MESSAGE", Type: relation.TypeText},
		},
		[]string{"ID"},
		relation.ForeignKey{Name: "EMITTED_BY", Columns: []string{"SERVICE_ID"}, RefRelation: "SERVICE", RefColumns: []string{"ID"}},
		relation.ForeignKey{Name: "EMITTED_ON", Columns: []string{"HOST_ID"}, RefRelation: "HOST", RefColumns: []string{"ID"}})
	incident := relation.MustSchema("INCIDENT",
		[]relation.Column{
			{Name: "ID", Type: relation.TypeString},
			{Name: "TITLE", Type: relation.TypeString},
			{Name: "SUMMARY", Type: relation.TypeText, Nullable: true},
		},
		[]string{"ID"})
	eventIncident := relation.MustSchema("EVENT_INCIDENT",
		[]relation.Column{
			{Name: "EVENT_ID", Type: relation.TypeString},
			{Name: "INCIDENT_ID", Type: relation.TypeString},
		},
		[]string{"EVENT_ID", "INCIDENT_ID"},
		relation.ForeignKey{Name: "EVIDENCE_EVENT", Columns: []string{"EVENT_ID"}, RefRelation: "LOG_EVENT", RefColumns: []string{"ID"}},
		relation.ForeignKey{Name: "EVIDENCE_INCIDENT", Columns: []string{"INCIDENT_ID"}, RefRelation: "INCIDENT", RefColumns: []string{"ID"}})
	return []*relation.Schema{service, host, event, incident, eventIncident}
}

// logTimestamp renders a deterministic synthetic timestamp: events advance a
// shared clock by a pseudo-random number of seconds each, starting from an
// arbitrary fixed epoch. The rendering is RFC3339-shaped so the tokenizer
// sees realistic punctuation-heavy terms.
func logTimestamp(secs int64) string {
	day := secs / 86400
	rem := secs % 86400
	return fmt.Sprintf("2026-01-%02dT%02d:%02d:%02dZ", 1+day%28, rem/3600, (rem%3600)/60, rem%60)
}

// GenerateLogs builds a synthetic log-search database for the configuration.
func GenerateLogs(cfg LogsConfig) (*relation.Database, error) {
	if cfg.Services < 1 || cfg.Hosts < 1 {
		return nil, fmt.Errorf("workload: at least one service and host required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase(fmt.Sprintf("logs-scale-%d", cfg.Services))
	for _, s := range logsSchemas() {
		if _, err := db.CreateTable(s.Clone()); err != nil {
			return nil, err
		}
	}
	service, _ := db.Table("SERVICE")
	hostT, _ := db.Table("HOST")
	event, _ := db.Table("LOG_EVENT")
	incident, _ := db.Table("INCIDENT")
	junction, _ := db.Table("EVENT_INCIDENT")

	str, txt := relation.String, relation.Text
	pick := func(list []string) string { return list[rng.Intn(len(list))] }

	var serviceIDs, hostIDs, incidentIDs []string
	for s := 0; s < cfg.Services; s++ {
		id := fmt.Sprintf("s%d", s+1)
		serviceIDs = append(serviceIDs, id)
		name := fmt.Sprintf("%s-%d", logServices[s%len(logServices)], s+1)
		if _, err := service.Insert(map[string]relation.Value{
			"ID":            str(id),
			"S_NAME":        str(name),
			"S_DESCRIPTION": txt(fmt.Sprintf("Handles %s and %s traffic.", pick(logOperations), pick(logOperations))),
		}); err != nil {
			return nil, err
		}
	}
	for h := 0; h < cfg.Hosts; h++ {
		id := fmt.Sprintf("h%d", h+1)
		hostIDs = append(hostIDs, id)
		region := logRegions[h%len(logRegions)]
		if _, err := hostT.Insert(map[string]relation.Value{
			"ID":       str(id),
			"HOSTNAME": str(fmt.Sprintf("%s-node-%d", region, h+1)),
			"REGION":   str(region),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Incidents; i++ {
		id := fmt.Sprintf("inc%d", i+1)
		incidentIDs = append(incidentIDs, id)
		op := pick(logOperations)
		if _, err := incident.Insert(map[string]relation.Value{
			"ID":      str(id),
			"TITLE":   str(fmt.Sprintf("%s outage %d", op, i+1)),
			"SUMMARY": txt(fmt.Sprintf("Elevated %s rates during %s in %s.", pick(logSeverities), op, pick(logRegions))),
		}); err != nil {
			return nil, err
		}
	}

	clock := int64(0)
	eventCounter := 0
	for _, svc := range serviceIDs {
		n := cfg.EventsPerService
		if n < 1 {
			n = 1
		}
		for e := 0; e < n; e++ {
			eventCounter++
			id := fmt.Sprintf("ev%d", eventCounter)
			clock += int64(1 + rng.Intn(97))
			// The trace token is unique per event: the index gains a fresh
			// high-cardinality term for every tuple generated.
			trace := fmt.Sprintf("trace-%08x", rng.Uint32())
			sev := pick(logSeverities)
			if _, err := event.Insert(map[string]relation.Value{
				"ID":         str(id),
				"SERVICE_ID": str(svc),
				"HOST_ID":    str(hostIDs[rng.Intn(len(hostIDs))]),
				"TS":         str(logTimestamp(clock)),
				"SEVERITY":   str(sev),
				"MESSAGE":    txt(fmt.Sprintf("%s %s %s for %s", sev, pick(logOperations), pick(logOutcomes), trace)),
			}); err != nil {
				return nil, err
			}
			if len(incidentIDs) > 0 && rng.Intn(4) == 0 {
				if _, err := junction.Insert(map[string]relation.Value{
					"EVENT_ID":    str(id),
					"INCIDENT_ID": str(incidentIDs[rng.Intn(len(incidentIDs))]),
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if errs := db.CheckIntegrity(); len(errs) > 0 {
		return nil, fmt.Errorf("workload: generated logs database violates integrity: %v", errs[0])
	}
	return db, nil
}

// MustGenerateLogs is GenerateLogs but panics on error.
func MustGenerateLogs(cfg LogsConfig) *relation.Database {
	db, err := GenerateLogs(cfg)
	if err != nil {
		panic(err)
	}
	return db
}
