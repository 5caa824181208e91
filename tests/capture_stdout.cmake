# Runs `${CLI} ${ARGS}` (ARGS is one space-separated string) and writes the
# command's stdout to ${OUT}, creating OUT's directory first; fails unless
# the command exits 0. Usage:
#   cmake -DCLI=<exe> "-DARGS=<args>" -DOUT=<file> -P capture_stdout.cmake
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS} exited with ${status}")
endif()
