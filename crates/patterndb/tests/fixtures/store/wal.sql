!242
#115
UPDATE patterns SET cnt = cnt + 4 , last_matched = 1630000100 WHERE id = '0efee4c72238732b8faf5483f1737b42305a1bdd'
#115
UPDATE patterns SET cnt = cnt + 7 , last_matched = 1630000100 WHERE id = '6a28422cce07991bbcbc98f209872535567543ad'
!373
#220
INSERT INTO patterns ( id , service , pattern , cnt , first_seen , last_matched , complexity ) VALUES ( 'b8017ec7c6d7df6e700d5df18c46043e09a30714' , 'app' , 'panic: it''s over %...%' , 1 , 1630000200 , 1630000200 , 0.0 )
#141
INSERT INTO examples ( pattern_id , seq , body ) VALUES ( 'b8017ec7c6d7df6e700d5df18c46043e09a30714' , 0 , 'panic: it''s over
  at frame 1' )
#86
UPDATE patterns SET promoted = 1 WHERE id = '6a28422cce07991bbcbc98f209872535567543ad'
#147
INSERT INTO examples ( pattern_id , seq , body ) VALUES ( 'b8017ec7c6d7df6e700d5df18c46043e09a30714' , 1 , 'panic: it''s ''quoted''
  at frame 2' )
