#90
CREATE TABLE examples (pattern_id TEXT NOT NULL, seq INTEGER NOT NULL, body TEXT NOT NULL)
#132
INSERT INTO examples VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 0, 'Accepted password for root from 10.2.3.4 port 22 ssh2')
#135
INSERT INTO examples VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 1, 'Accepted password for admin from 10.9.9.9 port 2200 ssh2')
#138
INSERT INTO examples VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 2, 'Accepted password for guest from 172.16.0.5 port 22022 ssh2')
#118
INSERT INTO examples VALUES ('0efee4c72238732b8faf5483f1737b42305a1bdd', 0, '(root) CMD (run-parts /etc/cron.hourly)')
#117
INSERT INTO examples VALUES ('0efee4c72238732b8faf5483f1737b42305a1bdd', 1, '(root) CMD (run-parts /etc/cron.daily)')
#231
CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT NOT NULL, pattern TEXT NOT NULL, cnt INTEGER DEFAULT 0, first_seen INTEGER DEFAULT 0, last_matched INTEGER DEFAULT 0, complexity REAL DEFAULT 0.0, promoted INTEGER DEFAULT 0)
#207
INSERT INTO patterns VALUES ('6a28422cce07991bbcbc98f209872535567543ad', 'sshd', 'Accepted password for %object% from %srcip:ipv4% port %port:integer% ssh2', 3, 1630000000, 1630000000, 0.3333333333333333, 0)
#153
INSERT INTO patterns VALUES ('0efee4c72238732b8faf5483f1737b42305a1bdd', 'cron', '(root) CMD (run-parts %string0%)', 2, 1630000000, 1630000000, 0.125, 0)
