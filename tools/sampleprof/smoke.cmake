# Smoke test of the sampling profiler: profile one run of EXE with
# LIB preloaded, then require REPORT to attribute samples to the
# simulator's own functions.
#
#   cmake -DLIB=<libsampleprof.so> -DEXE=<program> -DREPORT=<report.py>
#         -DPYTHON=<python3> -DWORKDIR=<dir> -P smoke.cmake

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(profile "${WORKDIR}/profile.txt")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "LD_PRELOAD=${LIB}"
          "SAMPLEPROF_OUT=${profile}" "${EXE}"
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled run of ${EXE} failed: ${rc}")
endif()
if(NOT EXISTS "${profile}")
  message(FATAL_ERROR "the profiler wrote no ${profile}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${REPORT}" "${profile}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report)
message("${report}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report.py failed: ${rc}")
endif()
if(NOT report MATCHES "neon::")
  message(FATAL_ERROR "no sample was attributed to a simulator function")
endif()
