#90
CREATE TABLE examples (pattern_id TEXT NOT NULL, seq INTEGER NOT NULL, body TEXT NOT NULL)
#55
CREATE TABLE examples_log (generation INTEGER NOT NULL)
#35
INSERT INTO examples_log VALUES (0)
#294
CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT NOT NULL, pattern TEXT NOT NULL, cnt INTEGER DEFAULT 0, first_seen INTEGER DEFAULT 0, last_matched INTEGER DEFAULT 0, complexity REAL DEFAULT 0.0, promoted INTEGER DEFAULT 0, examples_at INTEGER DEFAULT 0, examples_len INTEGER DEFAULT 0)
#217
INSERT INTO patterns VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 'sshd', 'Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2', 10, 1630000000, 1630000100, 0.3333333333333333, 1, 83, 177)
#160
INSERT INTO patterns VALUES ('0efee4c72238732b8faf5483f1737b42305a1bdd', 'cron', '(root) CMD (run-parts %string0%)', 6, 1630000000, 1630000100, 0.125, 0, 0, 83)
#150
INSERT INTO patterns VALUES ('b8017ec7c6d7df6e700d5df18c46043e09a30714', 'app', 'panic: it''s over %...%', 1, 1630000200, 1630000200, 0.0, 0, 260, 68)
