(** The post-run safety audit every backend shares.

    One function turns a deployment's end state — what its clients and
    2PC participants proposed, which writes were acknowledged, every
    replica's decided log, the routers' transaction records — into the
    {!Ci_rsm.Consistency} verdict (merged over consensus groups) and,
    for sharded deployments, the {!Ci_rsm.Atomicity} verdict. The
    simulator runner, both live transports and the model checker's
    per-state check all call it. *)

val check :
  issued:(int * int -> Ci_rsm.Command.t option) ->
  acked:(int * int) list ->
  views:Wire.value Ci_rsm.Consistency.replica_view list list ->
  txns:Ci_rsm.Atomicity.txn list ->
  Ci_rsm.Consistency.report * Ci_rsm.Atomicity.report option
(** [check ~issued ~acked ~views ~txns] audits one deployment.

    - [issued (node, req_id)] is the command that node proposed under
      that request id (clients, open-loop drivers and 2PC participants
      alike); a lookup, so a caller that keeps its table incrementally
      never rebuilds it.
    - [acked] lists the acknowledged writes as [(node, req_id)].
    - [views] holds one list of replica views per consensus group, in
      group order.
    - [txns] are the routers' cross-shard transaction records.

    Learned values must be proposed, except Mencius skip placeholders,
    which the protocol itself proposes. With one group every acked
    write is checked against it and the atomicity verdict is [None].
    With several, each group is checked independently (agreement holds
    within a group, never across groups): an acked single-shard write
    must be learned by its owning group, and an acked cross-shard write
    — committed under the router's identity, never the client's — is
    left to {!Ci_rsm.Atomicity.check} over each group's decided
    commands (the union of its replicas' logs). The per-group reports
    are merged: violations concatenated, counts summed. *)
