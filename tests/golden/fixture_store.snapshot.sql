#90
CREATE TABLE examples (pattern_id TEXT NOT NULL, seq INTEGER NOT NULL, body TEXT NOT NULL)
#257
CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT NOT NULL, pattern TEXT NOT NULL, cnt INTEGER DEFAULT 0, first_seen INTEGER DEFAULT 0, last_matched INTEGER DEFAULT 0, complexity REAL DEFAULT 0.0, promoted INTEGER DEFAULT 0, examples TEXT DEFAULT '')
#389
INSERT INTO patterns VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 'sshd', 'Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2', 10, 1630000000, 1630000100, 0.3333333333333333, 1, '53:Accepted password for root from 10.2.3.4 port 22 ssh256:Accepted password for admin from 10.9.9.9 port 2200 ssh259:Accepted password for guest from 172.16.0.5 port 22022 ssh2')
#240
INSERT INTO patterns VALUES ('0efee4c72238732b8faf5483f1737b42305a1bdd', 'cron', '(root) CMD (run-parts %string0%)', 6, 1630000000, 1630000100, 0.125, 0, '39:(root) CMD (run-parts /etc/cron.hourly)38:(root) CMD (run-parts /etc/cron.daily)')
#217
INSERT INTO patterns VALUES ('b8017ec7c6d7df6e700d5df18c46043e09a30714', 'app', 'panic: it''s over %...%', 1, 1630000200, 1630000200, 0.0, 0, '29:panic: it''s over
  at frame 133:panic: it''s ''quoted''
  at frame 2')
