(* Shared domain lifecycle for [Pool] and [Worker_pool]. *)

let recommended () = Domain.recommended_domain_count ()

let spawn_workers count body =
  Array.init count (fun i -> Domain.spawn (fun () -> body i))

let join_all domains = Array.iter Domain.join domains
