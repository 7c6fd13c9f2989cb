(** Retry policy for pool measurements, on the simulated clock.

    Transient faults (timeouts, crashes, unstable measurements) are
    retried up to [max_retries] extra attempts with exponential
    backoff, and every job gets a wall-clock budget of [timeout_s]. *)

type t = {
  max_retries : int;  (** extra attempts after the first failure *)
  backoff_base_s : float;  (** pause before the first retry *)
  backoff_mult : float;  (** backoff multiplier per further retry *)
  timeout_s : float;  (** per-job budget on the simulated clock *)
}

let default =
  { max_retries = 2; backoff_base_s = 0.25; backoff_mult = 2.0; timeout_s = 10.0 }

(** Simulated pause before retrying after failed attempt number
    [attempt] (0-based): [backoff_base_s *. backoff_mult ^ attempt]. *)
let backoff_s t ~attempt =
  t.backoff_base_s *. (t.backoff_mult ** float_of_int attempt)

(** Earliest simulated time the retry after failed attempt [attempt]
    may dispatch, given the failure was observed at [now].

    This is the {e job-local} form of backoff accounting: the pause is
    charged to the job's ready time, never to a device or a shared
    clock. Backoff delays the job, not the device: the device that saw
    the failure is free at once and takes other work from its
    backlog while the failed job waits. The pool coordinator keys its
    retry queue on [retry_at]. *)
let retry_at t ~now ~attempt = now +. backoff_s t ~attempt
