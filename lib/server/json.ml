(* The JSON module lives in lib/obs, below the run report; this alias
   keeps the [Ppnpart_server.Json] path that protocol clients (such as
   perfbench/) link against. *)
include Ppnpart_obs.Json
