(** The five evaluation networks (§6): ResNet-18 [16], MobileNet [19],
    the LSTM language model [48], DQN [28] and DCGAN [31], expressed as
    computational graphs over the standard operator set.

    Each builder takes optional scale parameters so the functional test
    suite can run reduced versions end-to-end while the benchmarks use
    the paper's full shapes. *)

module G = Tvm_graph.Graph_ir
module Attrs = Tvm_graph.Attrs
module Nd = Tvm_nd.Ndarray

let () = Tvm_graph.Std_ops.register_all ()

let i n = Attrs.Int n
let str s = Attrs.Str s

(* ------------------------------------------------------------------ *)
(* Shared layer helpers                                                 *)
(* ------------------------------------------------------------------ *)

let conv_bn_relu ?(relu = true) b ~name ~stride data ~ic ~oc ~kernel =
  let w = G.param b (name ^ "_w") [ oc; ic; kernel; kernel ] in
  let conv =
    G.op b "conv2d" ~name ~attrs:[ ("stride", i stride); ("padding", str "same") ]
      [ data; w ]
  in
  let scale = G.param b (name ^ "_bn_scale") [ oc ] in
  let shift = G.param b (name ^ "_bn_shift") [ oc ] in
  let bn = G.op b "batch_norm" ~name:(name ^ "_bn") [ conv; scale; shift ] in
  if relu then G.op b "relu" ~name:(name ^ "_relu") [ bn ] else bn

let dw_bn_relu b ~name ~stride data ~c ~kernel =
  let w = G.param b (name ^ "_w") [ c; 1; kernel; kernel ] in
  let conv =
    G.op b "depthwise_conv2d" ~name
      ~attrs:[ ("stride", i stride); ("padding", str "same") ]
      [ data; w ]
  in
  let scale = G.param b (name ^ "_bn_scale") [ c ] in
  let shift = G.param b (name ^ "_bn_shift") [ c ] in
  let bn = G.op b "batch_norm" ~name:(name ^ "_bn") [ conv; scale; shift ] in
  G.op b "relu" ~name:(name ^ "_relu") [ bn ]

let dense_layer ?(bias = true) b ~name data ~in_dim ~out_dim =
  let w = G.param b (name ^ "_w") [ out_dim; in_dim ] in
  let d = G.op b "dense" ~name [ data; w ] in
  if bias then
    let bv = G.param b (name ^ "_b") [ out_dim ] in
    G.op b "bias_add" ~name:(name ^ "_bias") [ d; bv ]
  else d

(* ------------------------------------------------------------------ *)
(* ResNet-18                                                            *)
(* ------------------------------------------------------------------ *)

(** ResNet-18 (basic blocks, stages 64/128/256/512 at full scale).
    [width] scales channel counts, [input_hw] the image size — the
    defaults are the paper's ImageNet configuration. *)
let resnet18 ?(batch = 1) ?(input_hw = 224) ?(width = 1.0) ?(num_classes = 1000) () =
  let ch base = max 4 (int_of_float (float_of_int base *. width)) in
  let b = G.builder () in
  let data = G.input b "data" [ batch; 3; input_hw; input_hw ] in
  let stem =
    conv_bn_relu b ~name:"conv1" ~stride:2 data ~ic:3 ~oc:(ch 64) ~kernel:7
  in
  let pooled =
    G.op b "max_pool2d" ~name:"pool1"
      ~attrs:[ ("size", i 3); ("stride", i 2); ("pad", i 1) ]
      [ stem ]
  in
  let basic_block b_ ~name ~stride data ~ic ~oc =
    let c1 = conv_bn_relu b_ ~name:(name ^ "_c1") ~stride data ~ic ~oc ~kernel:3 in
    let c2 = conv_bn_relu b_ ~relu:false ~name:(name ^ "_c2") ~stride:1 c1 ~ic:oc ~oc ~kernel:3 in
    let shortcut =
      if stride = 1 && ic = oc then data
      else
        conv_bn_relu b_ ~relu:false ~name:(name ^ "_sc") ~stride data ~ic ~oc ~kernel:1
    in
    let sum = G.op b_ "add" ~name:(name ^ "_add") [ c2; shortcut ] in
    G.op b_ "relu" ~name:(name ^ "_out") [ sum ]
  in
  let stage data ~name ~stride ~ic ~oc =
    let b1 = basic_block b ~name:(name ^ "a") ~stride data ~ic ~oc in
    basic_block b ~name:(name ^ "b") ~stride:1 b1 ~ic:oc ~oc
  in
  let s1 = stage pooled ~name:"layer1" ~stride:1 ~ic:(ch 64) ~oc:(ch 64) in
  let s2 = stage s1 ~name:"layer2" ~stride:2 ~ic:(ch 64) ~oc:(ch 128) in
  let s3 = stage s2 ~name:"layer3" ~stride:2 ~ic:(ch 128) ~oc:(ch 256) in
  let s4 = stage s3 ~name:"layer4" ~stride:2 ~ic:(ch 256) ~oc:(ch 512) in
  let gap = G.op b "global_avg_pool2d" ~name:"gap" [ s4 ] in
  let fc = dense_layer b ~name:"fc" gap ~in_dim:(ch 512) ~out_dim:num_classes in
  let sm = G.op b "softmax" ~name:"prob" [ fc ] in
  G.finalize b [ sm ]

(* ------------------------------------------------------------------ *)
(* MobileNet                                                            *)
(* ------------------------------------------------------------------ *)

let mobilenet ?(batch = 1) ?(input_hw = 224) ?(width = 1.0) ?(num_classes = 1000) () =
  let ch base = max 4 (int_of_float (float_of_int base *. width)) in
  let b = G.builder () in
  let data = G.input b "data" [ batch; 3; input_hw; input_hw ] in
  let stem = conv_bn_relu b ~name:"conv1" ~stride:2 data ~ic:3 ~oc:(ch 32) ~kernel:3 in
  let separable data ~name ~stride ~ic ~oc =
    let dw = dw_bn_relu b ~name:(name ^ "_dw") ~stride data ~c:(ch ic) ~kernel:3 in
    conv_bn_relu b ~name:(name ^ "_pw") ~stride:1 dw ~ic:(ch ic) ~oc:(ch oc) ~kernel:1
  in
  let blocks =
    [ (32, 64, 1); (64, 128, 2); (128, 128, 1); (128, 256, 2); (256, 256, 1);
      (256, 512, 2); (512, 512, 1); (512, 512, 1); (512, 512, 1); (512, 512, 1);
      (512, 512, 1); (512, 1024, 2); (1024, 1024, 1) ]
  in
  let body, _ =
    List.fold_left
      (fun (data, idx) (ic, oc, stride) ->
        (separable data ~name:(Printf.sprintf "block%d" idx) ~stride ~ic ~oc, idx + 1))
      (stem, 1) blocks
  in
  let gap = G.op b "global_avg_pool2d" ~name:"gap" [ body ] in
  let fc = dense_layer b ~name:"fc" gap ~in_dim:(ch 1024) ~out_dim:num_classes in
  let sm = G.op b "softmax" ~name:"prob" [ fc ] in
  G.finalize b [ sm ]

(* ------------------------------------------------------------------ *)
(* LSTM language model                                                  *)
(* ------------------------------------------------------------------ *)

(** One inference step of a multi-layer LSTM language model [48]:
    gates as dense layers, state update with elementwise ops, then a
    vocabulary projection + softmax. *)
let lstm_lm ?(batch = 1) ?(hidden = 650) ?(layers = 2) ?(vocab = 10000)
    ?(steps = 1) () =
  let b = G.builder () in
  let x0 = G.input b "x" [ batch; hidden ] in
  let cell layer (x, step) =
    let name = Printf.sprintf "l%d_s%d" layer step in
    let h_prev = G.input b (name ^ "_h") [ batch; hidden ] in
    let c_prev = G.input b (name ^ "_c") [ batch; hidden ] in
    let gate g act =
      let xw = dense_layer b ~bias:false ~name:(name ^ "_x" ^ g) x ~in_dim:hidden ~out_dim:hidden in
      let hw = dense_layer b ~bias:false ~name:(name ^ "_h" ^ g) h_prev ~in_dim:hidden ~out_dim:hidden in
      let s = G.op b "add" ~name:(name ^ "_" ^ g ^ "sum") [ xw; hw ] in
      let bias = G.param b (name ^ "_" ^ g ^ "b") [ hidden ] in
      let s = G.op b "bias_add" ~name:(name ^ "_" ^ g ^ "bias") [ s; bias ] in
      G.op b act ~name:(name ^ "_" ^ g) [ s ]
    in
    let i_g = gate "i" "sigmoid" in
    let f_g = gate "f" "sigmoid" in
    let o_g = gate "o" "sigmoid" in
    let g_g = gate "g" "tanh" in
    let fc = G.op b "mul" ~name:(name ^ "_fc") [ f_g; c_prev ] in
    let ig = G.op b "mul" ~name:(name ^ "_ig") [ i_g; g_g ] in
    let c' = G.op b "add" ~name:(name ^ "_cnew") [ fc; ig ] in
    let tc = G.op b "tanh" ~name:(name ^ "_tc") [ c' ] in
    G.op b "mul" ~name:(name ^ "_hnew") [ o_g; tc ]
  in
  let rec run_steps x step =
    if step > steps then x
    else
      let x' =
        List.fold_left (fun x layer -> cell layer (x, step)) x (List.init layers (fun l -> l))
      in
      run_steps x' (step + 1)
  in
  let top = run_steps x0 1 in
  let logits = dense_layer b ~name:"proj" top ~in_dim:hidden ~out_dim:vocab in
  let sm = G.op b "softmax" ~name:"prob" [ logits ] in
  G.finalize b [ sm ]

(* ------------------------------------------------------------------ *)
(* DQN                                                                  *)
(* ------------------------------------------------------------------ *)

(** The Deep Q Network of [28]: 8×8/4, 4×4/2 (the unconventional
    operator behind DQN's 3.8× in Fig 14), 3×3/1 convolutions with
    valid padding, then two dense layers. *)
let dqn ?(batch = 1) ?(input_hw = 84) ?(actions = 18) () =
  let b = G.builder () in
  let data = G.input b "data" [ batch; 4; input_hw; input_hw ] in
  let conv ~name ~stride ~kernel ~ic ~oc data =
    let w = G.param b (name ^ "_w") [ oc; ic; kernel; kernel ] in
    let c =
      G.op b "conv2d" ~name
        ~attrs:[ ("stride", i stride); ("padding", str "valid") ]
        [ data; w ]
    in
    let bias = G.param b (name ^ "_b") [ oc ] in
    let c = G.op b "bias_add" ~name:(name ^ "_bias") [ c; bias ] in
    G.op b "relu" ~name:(name ^ "_relu") [ c ]
  in
  let c1 = conv ~name:"conv1" ~stride:4 ~kernel:8 ~ic:4 ~oc:32 data in
  let c2 = conv ~name:"conv2" ~stride:2 ~kernel:4 ~ic:32 ~oc:64 c1 in
  let c3 = conv ~name:"conv3" ~stride:1 ~kernel:3 ~ic:64 ~oc:64 c2 in
  let flat = G.op b "flatten" ~name:"flat" [ c3 ] in
  let fc1 =
    let n = G.node_shape b flat in
    dense_layer b ~name:"fc1" flat ~in_dim:(List.nth n 1) ~out_dim:512
  in
  let fc1 = G.op b "relu" ~name:"fc1_relu" [ fc1 ] in
  let fc2 = dense_layer b ~name:"fc2" fc1 ~in_dim:512 ~out_dim:actions in
  G.finalize b [ fc2 ]

(* ------------------------------------------------------------------ *)
(* DCGAN generator                                                      *)
(* ------------------------------------------------------------------ *)

let dcgan ?(batch = 1) ?(code_dim = 100) ?(base = 64) () =
  let b = G.builder () in
  let z = G.input b "z" [ batch; code_dim ] in
  let proj = dense_layer b ~name:"proj" z ~in_dim:code_dim ~out_dim:(base * 8 * 4 * 4) in
  let seed =
    G.op b "reshape" ~name:"seed"
      ~attrs:[ ("shape", Attrs.Ints [ batch; base * 8; 4; 4 ]) ]
      [ proj ]
  in
  let deconv ~name ~ic ~oc ?(act = "relu") data =
    let w = G.param b (name ^ "_w") [ ic; oc; 4; 4 ] in
    let d =
      G.op b "conv2d_transpose" ~name
        ~attrs:[ ("stride", i 2); ("pad", i 1) ]
        [ data; w ]
    in
    if act = "none" then d else G.op b act ~name:(name ^ "_" ^ act) [ d ]
  in
  let d1 = deconv ~name:"deconv1" ~ic:(base * 8) ~oc:(base * 4) seed in
  let d2 = deconv ~name:"deconv2" ~ic:(base * 4) ~oc:(base * 2) d1 in
  let d3 = deconv ~name:"deconv3" ~ic:(base * 2) ~oc:base d2 in
  let d4 = deconv ~name:"deconv4" ~ic:base ~oc:3 ~act:"tanh" d3 in
  G.finalize b [ d4 ]

(** A full-shape evaluation network by name; raises [Invalid_argument]
    listing the valid names otherwise. *)
let of_name = function
  | "resnet18" -> resnet18 ()
  | "mobilenet" -> mobilenet ()
  | "lstm" -> lstm_lm ()
  | "dqn" -> dqn ()
  | "dcgan" -> dcgan ()
  | s -> invalid_arg ("unknown network " ^ s ^ " (resnet18|mobilenet|lstm|dqn|dcgan)")

(* ------------------------------------------------------------------ *)
(* Serving suite                                                        *)
(* ------------------------------------------------------------------ *)

(** The five networks at serving-friendly scales, keyed by the names
    [tvmd]/[tvmc] use — the model-server's default load set. [full]
    selects the paper's full shapes instead (benchmarks); the default
    reduced shapes keep CI compiles fast while preserving each
    network's operator mix. *)
let serving_suite ?(batch = 1) ?(full = false) () =
  if full then
    [
      ("resnet18", resnet18 ~batch ());
      ("mobilenet", mobilenet ~batch ());
      ("lstm", lstm_lm ~batch ());
      ("dqn", dqn ~batch ());
      ("dcgan", dcgan ~batch ());
    ]
  else
    [
      ("resnet18", resnet18 ~batch ~input_hw:64 ~width:0.5 ~num_classes:64 ());
      ("mobilenet", mobilenet ~batch ~input_hw:64 ~width:0.5 ~num_classes:64 ());
      ("lstm", lstm_lm ~batch ~hidden:64 ~layers:1 ~vocab:256 ());
      ("dqn", dqn ~batch ());
      ("dcgan", dcgan ~batch ~base:16 ());
    ]

(* ------------------------------------------------------------------ *)
(* Parameter generation                                                 *)
(* ------------------------------------------------------------------ *)

(** Deterministic small random values for every parameter node — large
    enough to exercise kernels, small enough to keep deep nets
    numerically tame in functional runs. *)
let random_params ?(seed = 0) (g : G.t) : (int * Nd.t) list =
  List.map
    (fun id ->
      let n = G.node g id in
      (id, Nd.random ~seed:(seed + id) ~lo:(-0.15) ~hi:0.15 n.G.shape))
    g.G.param_ids

let random_input ?(seed = 1000) (g : G.t) name =
  match
    Array.to_list g.G.nodes
    |> List.find_opt (fun n -> n.G.name = name && n.G.kind = G.Input)
  with
  | Some n -> Nd.random ~seed ~lo:(-1.) ~hi:1. n.G.shape
  | None -> invalid_arg ("random_input: no input named " ^ name)

(** All inputs (there are several for LSTM states). *)
let random_inputs ?(seed = 1000) (g : G.t) : (string * Nd.t) list =
  List.map
    (fun id ->
      let n = G.node g id in
      (n.G.name, Nd.random ~seed:(seed + id) ~lo:(-1.) ~hi:1. n.G.shape))
    g.G.input_ids
